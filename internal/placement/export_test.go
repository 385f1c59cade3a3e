package placement

// Hooks for the external equivalence test (package placement_test), which
// imports core and so cannot live inside the package.
var (
	OracleAll       = oracleAll
	OracleCoherence = oracleCoherence
	OracleCluster   = oracleCluster
	ClusterMetrics  = sharingMetrics
)

// BudgetHits returns how many placements so far spent the packing search
// budget and finished on a frozen witness.
func BudgetHits() int64 { return budgetHits.Load() }

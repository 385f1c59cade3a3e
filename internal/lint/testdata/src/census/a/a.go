// Package a is the shared-state census fixture: one struct per guard
// class the census must recognize, including the two precision cases
// that need interprocedural reasoning (a caller-holds-lock helper) and
// copy semantics (a value-receiver defaults normalizer).
package a

import (
	"sync"
	"sync/atomic"
)

// Counter's n is guarded at every access site; evictions is touched only
// inside bumpLocked, whose every call site holds mu — the census must
// classify both as mutex-guarded (the latter via inherited lock context).
type Counter struct {
	mu        sync.Mutex
	n         int
	evictions int
}

func (c *Counter) Add() {
	c.mu.Lock()
	c.n++
	c.bumpLocked()
	c.mu.Unlock()
}

func (c *Counter) Get() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bumpLocked()
	return c.n
}

// bumpLocked mutates evictions; caller holds mu.
func (c *Counter) bumpLocked() {
	c.evictions++
}

// Memo is Counter as a generic type. Inside a generic method, a call of
// another method resolves to an instantiated copy of it; the census must
// follow it to the declaration, or evictions would look reachable from
// no root at all and go unreported.
type Memo[K comparable, V any] struct {
	mu        sync.Mutex
	m         map[K]V
	evictions int
}

func (c *Memo[K, V]) Get(k K) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bumpLocked()
	return c.m[k]
}

func (c *Memo[K, V]) Evictions() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.bumpLocked()
	return c.evictions
}

// bumpLocked mutates evictions; caller holds mu.
func (c *Memo[K, V]) bumpLocked() {
	c.evictions++
}

// Bare.hits is written and read from two exported roots with no guard at
// all: the census's one hard error.
type Bare struct {
	hits int
}

func (b *Bare) Inc() {
	b.hits++
}

func (b *Bare) Read() int {
	return b.hits
}

// Opts is normalized through a value receiver: the writes inside
// withDefaults touch a stack copy and must not count against the field,
// leaving only reads — immutable.
type Opts struct {
	Depth int
}

func (o Opts) withDefaults() Opts {
	if o.Depth <= 0 {
		o.Depth = 8
	}
	return o
}

// Server exercises the type-shaped guards: a channel field, an atomic
// wrapper field, and an immutable options value.
type Server struct {
	opts Opts
	done chan struct{}
	flag atomic.Bool
}

func NewServer(o Opts) *Server {
	s := &Server{opts: o.withDefaults(), done: make(chan struct{})}
	return s
}

func (s *Server) Depth() int {
	return s.opts.Depth
}

func (s *Server) Half() int {
	return s.opts.Depth / 2
}

func (s *Server) Close() {
	s.flag.Store(true)
	close(s.done)
}

func (s *Server) Done() <-chan struct{} {
	if s.flag.Load() {
		return s.done
	}
	return s.done
}

// Rec is single-owner: the type-level directive covers every field.
//
//mtlint:guard external -- single-owner fixture type
type Rec struct {
	buf []int
}

func (r *Rec) Push(v int) {
	r.buf = append(r.buf, v)
}

func (r *Rec) Len() int {
	return len(r.buf)
}

// Pub.result is written once before close(done) publishes it — a
// field-level directive for an idiom the census cannot prove.
type Pub struct {
	//mtlint:guard immutable -- written once before close(done) publishes it
	result string
	done   chan struct{}
}

func (p *Pub) Set(s string) {
	p.result = s
	close(p.done)
}

func (p *Pub) Get() string {
	<-p.done
	return p.result
}

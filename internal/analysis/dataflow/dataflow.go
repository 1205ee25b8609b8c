// Package dataflow is a generic forward worklist solver over the
// control-flow graphs of internal/analysis/cfg. A pass describes its
// abstract domain as a Problem: the entry state, a transfer function over
// leaf nodes, and the lattice operations (merge at joins, equality for the
// fixpoint test, clone for state independence across paths).
//
// The intended shape for a lapivet pass is two-phase:
//
//	res := dataflow.Solve(g, p)   // fixpoint, no reporting
//	p.report = true
//	res.Walk(g, p)                // replay each block once with its
//	                              // fixed in-state; Transfer now reports
//
// Walk visits reachable blocks in creation (source) order and each node
// exactly once, so diagnostics come out deterministically and without
// duplicates even though Solve may have transferred the same node many
// times on the way to the fixpoint.
//
// Termination is the Problem's responsibility: Merge must be monotone
// (never discard facts) over a finite domain. The lapivet passes use the
// may-set lattice below — union over finite fact sets (objects in the
// function × a small status enum) — which converges in at most |facts|
// iterations per block.
package dataflow

import (
	"go/ast"

	"golapi/internal/analysis/cfg"
)

// A Problem describes one forward dataflow analysis.
type Problem[S any] interface {
	// Entry returns the state at function entry.
	Entry() S
	// Clone returns an independent copy of s.
	Clone(s S) S
	// Merge joins src into dst and returns the result; dst may be mutated.
	Merge(dst, src S) S
	// Equal reports whether two states carry the same facts.
	Equal(a, b S) bool
	// Transfer applies one leaf node's effect; s may be mutated and
	// returned. It must be deterministic given (n, s).
	Transfer(n ast.Node, s S) S
}

// Set is a may-set of facts: a fact holds at a program point if it holds
// on some path into it.
type Set[K comparable] map[K]bool

// MaySet is the Set lattice, joined by union. A Problem over Set[K] embeds
// it and supplies only Entry and Transfer.
type MaySet[K comparable] struct{}

// Clone returns an independent copy of s.
func (MaySet[K]) Clone(s Set[K]) Set[K] {
	n := make(Set[K], len(s))
	for k := range s {
		n[k] = true
	}
	return n
}

// Merge adds src's facts to dst.
func (MaySet[K]) Merge(dst, src Set[K]) Set[K] {
	for k := range src {
		dst[k] = true
	}
	return dst
}

// Equal reports whether a and b hold the same facts.
func (MaySet[K]) Equal(a, b Set[K]) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// Result holds the fixpoint: the in-state of every reachable block.
// Unreachable blocks are absent.
type Result[S any] struct {
	In map[*cfg.Block]S
}

// Solve runs the worklist to a fixpoint and returns the per-block
// in-states.
func Solve[S any](g *cfg.Graph, p Problem[S]) *Result[S] {
	in := make(map[*cfg.Block]S, len(g.Blocks))
	in[g.Entry] = p.Entry()
	work := make([]*cfg.Block, 0, len(g.Blocks))
	queued := make([]bool, len(g.Blocks)+1)
	push := func(b *cfg.Block) {
		if !queued[b.Index] {
			queued[b.Index] = true
			work = append(work, b)
		}
	}
	push(g.Entry)
	for len(work) > 0 {
		blk := work[0]
		work = work[1:]
		queued[blk.Index] = false

		out := p.Clone(in[blk])
		for _, n := range blk.Nodes {
			out = p.Transfer(n, out)
		}
		for _, succ := range blk.Succs {
			old, ok := in[succ]
			if !ok {
				in[succ] = p.Clone(out)
				push(succ)
				continue
			}
			merged := p.Merge(p.Clone(old), out)
			if !p.Equal(old, merged) {
				in[succ] = merged
				push(succ)
			}
		}
	}
	return &Result[S]{In: in}
}

// Walk replays the fixpoint once: every reachable block in source order,
// every node exactly once, transferred from the block's fixed in-state.
// Passes flip their reporting flag before calling Walk so Transfer emits
// diagnostics against converged states.
func (r *Result[S]) Walk(g *cfg.Graph, p Problem[S]) {
	for _, blk := range g.Blocks {
		s, ok := r.In[blk]
		if !ok {
			continue
		}
		s = p.Clone(s)
		for _, n := range blk.Nodes {
			s = p.Transfer(n, s)
		}
	}
}

// Out computes a block's out-state from the fixpoint (its in-state pushed
// through its nodes). The second result is false when the block is
// unreachable. Passes use Out(g.Exit, p) for at-function-exit obligations
// (leaked buffers); an unreachable exit means every path panics or loops
// forever, and exit obligations are vacuous.
func (r *Result[S]) Out(g *cfg.Graph, blk *cfg.Block, p Problem[S]) (S, bool) {
	s, ok := r.In[blk]
	if !ok {
		var zero S
		return zero, false
	}
	s = p.Clone(s)
	for _, n := range blk.Nodes {
		s = p.Transfer(n, s)
	}
	return s, true
}

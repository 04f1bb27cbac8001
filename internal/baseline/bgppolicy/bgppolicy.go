// Package bgppolicy implements the paper's interdomain comparison
// baseline: Gao–Rexford policy routing over an annotated AS graph. The
// paper defines interdomain stretch as "the ratio of the traversed path
// to the path BGP would select" (§6.1) and plots the BGP-policy
// distribution itself in Fig 8b; this package computes those BGP paths.
//
// Path legality is the classic valley-free rule: a path ascends
// customer→provider links, crosses at most one peering link, then
// descends provider→customer links. Among legal paths we select the
// shortest (hop count), which is the standard abstraction of BGP's
// local-pref + AS-path-length decision process on inferred topologies.
package bgppolicy

import (
	"rofl/internal/topology"
)

// Table computes valley-free shortest paths over an AS graph. It is
// stateless with respect to failures; pass a LinkFilter to exclude
// failed adjacencies.
type Table struct {
	g *topology.ASGraph
}

// New returns a path oracle for g.
func New(g *topology.ASGraph) *Table { return &Table{g: g} }

// LinkFilter reports whether the AS adjacency a–b is usable.
type LinkFilter func(a, b topology.ASN) bool

// phase encodes valley-free progress: ascending (customer→provider
// moves still allowed) or descending (only provider→customer moves
// remain). Crossing a peering link forces the descent.
type phase uint8

const (
	ascending phase = iota
	descending
	numPhases
)

// Path returns the shortest valley-free AS path from src to dst
// (inclusive of both), or nil when policy permits no path. A nil filter
// means all adjacencies are up.
func (t *Table) Path(src, dst topology.ASN, up LinkFilter) []topology.ASN {
	if src == dst {
		return []topology.ASN{src}
	}
	n := t.g.NumASes()
	// parent[as][ph] records the predecessor state for reconstruction.
	visited := make([]bool, n*int(numPhases))
	parent := make([]state, n*int(numPhases))
	idx := func(s state) int { return int(s.as)*int(numPhases) + int(s.ph) }

	start := state{as: src, ph: ascending}
	visited[idx(start)] = true
	parent[idx(start)] = state{as: -1}
	queue := []state{start}

	var goal state
	found := false
	visit := func(next, cur state) {
		i := idx(next)
		if visited[i] {
			return
		}
		visited[i] = true
		parent[i] = cur
		if next.as == dst {
			goal, found = next, true
			return
		}
		queue = append(queue, next)
	}
	for len(queue) > 0 && !found {
		cur := queue[0]
		queue = queue[1:]
		nbrs, rels := t.g.Adjacency(cur.as)
		for k, b := range nbrs {
			if up != nil && !up(cur.as, b) {
				continue
			}
			switch rels[k] {
			case topology.RelProvider, topology.RelBackup:
				// Ascending only.
				if cur.ph == ascending {
					visit(state{as: b, ph: ascending}, cur)
				}
			case topology.RelPeer:
				// One peer crossing, at the top of the path.
				if cur.ph == ascending {
					visit(state{as: b, ph: descending}, cur)
				}
			case topology.RelCustomer:
				// Descending is always allowed and is terminal-phase.
				visit(state{as: b, ph: descending}, cur)
			}
			if found {
				break
			}
		}
	}
	if !found {
		return nil
	}
	var rev []topology.ASN
	for s := goal; s.as != -1; s = parent[idx(s)] {
		rev = append(rev, s.as)
	}
	out := make([]topology.ASN, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		// Collapse the duplicate AS that appears when only the phase
		// changed (cannot happen with the current move set, but keep the
		// reconstruction robust).
		if len(out) == 0 || out[len(out)-1] != rev[i] {
			out = append(out, rev[i])
		}
	}
	return out
}

// state is one BFS node: an AS plus the valley-free phase reached there.
type state struct {
	as topology.ASN
	ph phase
}

// Hops returns the AS-hop length of the BGP path (len-1), or -1 when no
// policy-compliant path exists.
func (t *Table) Hops(src, dst topology.ASN, up LinkFilter) int {
	p := t.Path(src, dst, up)
	if p == nil {
		return -1
	}
	return len(p) - 1
}

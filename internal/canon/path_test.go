package canon

import (
	"math"
	"slices"
	"testing"

	"rofl/internal/sim"
	"rofl/internal/topology"
)

type pathQuery struct {
	root     Root
	from, to topology.ASN
}

// pathQueries lists searches over every kind of root: the top, each
// non-stub AS subtree and each peering virtual AS, between every pair of
// a sample of ASes.
func pathQueries(g *topology.ASGraph) []pathQuery {
	roots := []Root{Top}
	for a := 0; a < g.NumASes(); a++ {
		asn := topology.ASN(a)
		if g.Tier(asn) != 3 {
			roots = append(roots, asRoot(asn))
		}
		for _, q := range g.Peers(asn) {
			if asn < q {
				roots = append(roots, peerRoot(asn, q))
			}
		}
	}
	var qs []pathQuery
	for _, r := range roots {
		for from := 0; from < g.NumASes(); from += 7 {
			for to := 3; to < g.NumASes(); to += 5 {
				qs = append(qs, pathQuery{r, topology.ASN(from), topology.ASN(to)})
			}
		}
	}
	return qs
}

// failSome fails a few provider links, including every primary link of
// one multihomed stub, so searches cross the failure overlay and
// activate backup links.
func failSome(in *Internet, g *topology.ASGraph) {
	for _, s := range g.Stubs() {
		if len(g.BackupProviders(s)) > 0 {
			for _, p := range g.PrimaryProviders(s) {
				in.FailASLink(s, p)
			}
			break
		}
	}
	for a := 0; a < g.NumASes(); a += 11 {
		if provs := g.Providers(topology.ASN(a)); len(provs) > 1 {
			in.FailASLink(topology.ASN(a), provs[0])
		}
	}
}

// TestPathWithinAfterEpochWrap makes every search start at a wrapping
// epoch, with the stamps of an earlier epoch cycle left in the scratch,
// and checks each path still matches a fresh Internet's.
func TestPathWithinAfterEpochWrap(t *testing.T) {
	in, g := genInternet(t, DefaultOptions())
	fresh := New(g, sim.NewMetrics(), DefaultOptions())
	failSome(in, g)
	failSome(fresh, g)
	found := 0
	for i, q := range pathQueries(g) {
		want := fresh.pathWithin(q.root, q.from, q.to)
		if want != nil {
			found++
		}
		// Stamp 1 is the epoch the search after the wrap uses: unless
		// the wrap clears the scratch, every state looks visited.
		for k := range in.bfs.seen {
			in.bfs.seen[k] = 1
		}
		in.bfs.epoch = math.MaxUint32
		got := in.pathWithin(q.root, q.from, q.to)
		if !slices.Equal(got, want) {
			t.Fatalf("query %d %s %d->%d: path %v after the wrap, fresh Internet %v",
				i, q.root, q.from, q.to, got, want)
		}
		if h := in.hopsWithin(q.root, q.from, q.to); h != len(want)-1 {
			t.Fatalf("query %d: hopsWithin %d, path %v", i, h, want)
		}
	}
	if found == 0 {
		t.Fatal("no query found a path")
	}
}

// TestHopsWithinDoesNotAllocate pins the scratch contract: once the
// queue has grown, a search allocates nothing.
func TestHopsWithinDoesNotAllocate(t *testing.T) {
	in, g := genInternet(t, DefaultOptions())
	failSome(in, g)
	qs := pathQueries(g)
	sweep := func() {
		for _, q := range qs {
			in.hopsWithin(q.root, q.from, q.to)
		}
	}
	sweep()
	if allocs := testing.AllocsPerRun(3, sweep); allocs != 0 {
		t.Fatalf("hopsWithin allocates %.1f times per sweep of %d searches", allocs, len(qs))
	}
}

func TestLinkFailureOverlay(t *testing.T) {
	in := newSmall(t, DefaultOptions())
	in.FailASLink(4, 2)
	in.FailASLink(2, 4) // same link, either order
	if !in.LinkFailed(2, 4) || !in.LinkFailed(4, 2) || in.linkUp(4, 2) {
		t.Fatal("failed link must read failed from both ends")
	}
	if in.LinkFailed(4, 5) || !in.linkUp(2, 5) {
		t.Fatal("other links stay up")
	}
	in.RestoreASLink(2, 4)
	if in.LinkFailed(4, 2) || !in.linkUp(4, 2) {
		t.Fatal("one restore brings the link back")
	}
	if in.G.Relation(4, 2) != topology.RelProvider {
		t.Fatal("failures must not touch the shared graph")
	}
}

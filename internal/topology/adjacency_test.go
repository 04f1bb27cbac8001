package topology

import (
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// refGraph is a map model of the ASGraph relation semantics: rel[a][b]
// is how a sees b. The accessors' expected results are derived from it
// by filtering and sorting, independently of the adjacency arrays.
type refGraph map[ASN]map[ASN]Relation

func (r refGraph) set(a, b ASN, rel Relation) {
	for _, k := range []ASN{a, b} {
		if r[k] == nil {
			r[k] = map[ASN]Relation{}
		}
	}
	delete(r[a], b)
	delete(r[b], a)
	if rel != RelNone {
		r[a][b] = rel
		r[b][a] = inverse(rel)
	}
}

func (r refGraph) filter(a ASN, keep func(b ASN, rel Relation) bool) []ASN {
	var out []ASN
	for b, rel := range r[a] {
		if keep(b, rel) {
			out = append(out, b)
		}
	}
	slices.Sort(out)
	return out
}

func is(want Relation) func(ASN, Relation) bool {
	return func(_ ASN, rel Relation) bool { return rel == want }
}

// checkAgainst compares every accessor of g with the reference model.
func checkAgainst(t *testing.T, g *ASGraph, ref refGraph) {
	t.Helper()
	eq := func(what string, a ASN, got, want []ASN) {
		t.Helper()
		if !slices.Equal(got, want) {
			t.Fatalf("%s(%d) = %v, want %v", what, a, got, want)
		}
	}
	for i := 0; i < g.NumASes(); i++ {
		a := ASN(i)
		primary := ref.filter(a, is(RelProvider))
		backup := ref.filter(a, is(RelBackup))
		eq("PrimaryProviders", a, g.PrimaryProviders(a), primary)
		eq("BackupProviders", a, g.BackupProviders(a), backup)
		eq("Providers", a, g.Providers(a), append(primary, backup...))
		eq("Customers", a, g.Customers(a), ref.filter(a, is(RelCustomer)))
		eq("PrimaryCustomers", a, g.PrimaryCustomers(a), ref.filter(a, func(b ASN, rel Relation) bool {
			return rel == RelCustomer && ref[b][a] == RelProvider
		}))
		eq("Peers", a, g.Peers(a), ref.filter(a, is(RelPeer)))
		eq("Neighbors", a, g.Neighbors(a), ref.filter(a, func(ASN, Relation) bool { return true }))
		custs, flags := g.CustomerLinks(a)
		if len(flags) != len(custs) {
			t.Fatalf("CustomerLinks(%d): %d flags for %d customers", a, len(flags), len(custs))
		}
		for k, c := range custs {
			if want := ref[c][a] == RelBackup; flags[k] != want {
				t.Fatalf("CustomerLinks(%d): backup flag of %d = %v, want %v", a, c, flags[k], want)
			}
		}
		nbrs, rels := g.Adjacency(a)
		for k, b := range nbrs {
			if rels[k] != ref[a][b] {
				t.Fatalf("Adjacency(%d): relation of %d = %v, want %v", a, b, rels[k], ref[a][b])
			}
		}
		for j := 0; j < g.NumASes(); j++ {
			if a != ASN(j) && g.Relation(a, ASN(j)) != ref[a][ASN(j)] {
				t.Fatalf("Relation(%d, %d) = %v, want %v", a, j, g.Relation(a, ASN(j)), ref[a][ASN(j)])
			}
		}
	}
}

// TestAdjacencyMatchesReference drives random SetRelation sequences —
// new links, relation changes on existing links, and removals — and
// checks every accessor against the map model after each step. Reading
// every accessor before the next SetRelation also covers the mid-build
// reads topology/parse.go makes.
func TestAdjacencyMatchesReference(t *testing.T) {
	rels := []Relation{RelNone, RelProvider, RelCustomer, RelPeer, RelBackup}
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const n = 9
		g, ref := NewASGraph(n), refGraph{}
		for step := 0; step < 150; step++ {
			a, b := ASN(rng.Intn(n)), ASN(rng.Intn(n))
			if a == b {
				continue
			}
			rel := rels[rng.Intn(len(rels))]
			g.SetRelation(a, b, rel)
			ref.set(a, b, rel)
			checkAgainst(t, g, ref)
		}
	}
}

// TestSetRelationAfterReads changes an already-read AS's relations and
// checks the accessors report the new state.
func TestSetRelationAfterReads(t *testing.T) {
	g := NewASGraph(4)
	g.SetRelation(0, 1, RelProvider)
	if got := g.PrimaryProviders(0); !slices.Equal(got, []ASN{1}) {
		t.Fatalf("PrimaryProviders(0) = %v", got)
	}
	g.SetRelation(0, 2, RelProvider)
	g.SetRelation(0, 1, RelBackup) // demote an existing link
	g.SetRelation(0, 3, RelCustomer)
	if got := g.PrimaryProviders(0); !slices.Equal(got, []ASN{2}) {
		t.Fatalf("PrimaryProviders(0) after demotion = %v", got)
	}
	if got := g.Providers(0); !slices.Equal(got, []ASN{2, 1}) {
		t.Fatalf("Providers(0) = %v, want primary 2 then backup 1", got)
	}
	if got := g.Customers(0); !slices.Equal(got, []ASN{3}) {
		t.Fatalf("Customers(0) = %v", got)
	}
	custs, backup := g.CustomerLinks(1)
	if !slices.Equal(custs, []ASN{0}) || !backup[0] {
		t.Fatalf("CustomerLinks(1) = %v %v, want 0 over a backup link", custs, backup)
	}
	if got := g.Neighbors(0); !slices.Equal(got, []ASN{1, 2, 3}) {
		t.Fatalf("Neighbors(0) = %v", got)
	}
}

// TestAccessorsDoNotAllocate pins the adjacency contract the canon path
// search relies on: every accessor is a read of prebuilt arrays.
func TestAccessorsDoNotAllocate(t *testing.T) {
	g := GenAS(DefaultASGen())
	n := g.NumASes()
	sink := 0
	for name, fn := range map[string]func(a ASN){
		"Customers":        func(a ASN) { sink += len(g.Customers(a)) },
		"CustomerLinks":    func(a ASN) { c, _ := g.CustomerLinks(a); sink += len(c) },
		"PrimaryProviders": func(a ASN) { sink += len(g.PrimaryProviders(a)) },
		"BackupProviders":  func(a ASN) { sink += len(g.BackupProviders(a)) },
		"Providers":        func(a ASN) { sink += len(g.Providers(a)) },
		"Peers":            func(a ASN) { sink += len(g.Peers(a)) },
		"Neighbors":        func(a ASN) { sink += len(g.Neighbors(a)) },
		"Adjacency":        func(a ASN) { nb, _ := g.Adjacency(a); sink += len(nb) },
		"Relation":         func(a ASN) { sink += int(g.Relation(a, ASN(n-1-int(a)))) },
	} {
		if allocs := testing.AllocsPerRun(10, func() {
			for a := 0; a < n; a++ {
				fn(ASN(a))
			}
		}); allocs != 0 {
			t.Errorf("%s allocates %.1f times per sweep", name, allocs)
		}
	}
	_ = sink
}

// TestAccessorAppendDoesNotAlias appends to every returned view and
// checks the graph is unchanged: views have their capacity clipped.
func TestAccessorAppendDoesNotAlias(t *testing.T) {
	g := GenAS(DefaultASGen())
	ref := refGraph{}
	for a := 0; a < g.NumASes(); a++ {
		nbrs, rels := g.Adjacency(ASN(a))
		for k, b := range nbrs {
			if ref[ASN(a)] == nil {
				ref[ASN(a)] = map[ASN]Relation{}
			}
			ref[ASN(a)][b] = rels[k]
		}
	}
	const junk = ASN(-7)
	for a := 0; a < g.NumASes(); a++ {
		asn := ASN(a)
		for _, s := range [][]ASN{
			g.Providers(asn), g.Customers(asn), g.Peers(asn), g.Neighbors(asn),
		} {
			_ = append(s, junk)
		}
		p := g.PrimaryProviders(asn)
		_ = append(p, junk) // would overwrite the first backup provider
		c, flags := g.CustomerLinks(asn)
		_ = append(c, junk)
		_ = append(flags, true)
		nb, rels := g.Adjacency(asn)
		_ = append(nb, junk)
		_ = append(rels, RelPeer)
	}
	checkAgainst(t, g, ref)
}

// TestConcurrentReaders has several goroutines read one shared graph,
// as experiment trials do; run under -race it checks the accessors are
// pure reads.
func TestConcurrentReaders(t *testing.T) {
	g := GenAS(DefaultASGen())
	want := make([]int, g.NumASes())
	for a := range want {
		want[a] = len(g.Providers(ASN(a))) + len(g.Customers(ASN(a))) + len(g.Peers(ASN(a)))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				for a := 0; a < g.NumASes(); a++ {
					asn := ASN(a)
					got := len(g.Providers(asn)) + len(g.Customers(asn)) + len(g.Peers(asn))
					for _, b := range g.Neighbors(asn) {
						if g.Relation(asn, b) == RelNone {
							t.Errorf("Relation(%d, %d) = none for a neighbour", a, b)
							return
						}
					}
					if got != want[a] {
						t.Errorf("AS %d: %d relation entries, want %d", a, got, want[a])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

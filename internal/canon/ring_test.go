package canon

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rofl/internal/ident"
	"rofl/internal/sim"
	"rofl/internal/topology"
)

// refSplice is the ring bookkeeping as it stood while every VNode kept
// its neighbours in two maps: a join wrote the newcomer's entries and
// one entry of each neighbour, a departure rewrote the two neighbours'.
// The differential test holds level.neighbours to what those writes
// leave behind.
type refSplice struct {
	rings  map[Root][]Ptr
	succAt map[ident.ID]map[Root]Ptr
	predAt map[ident.ID]map[Root]Ptr
}

func newRefSplice() *refSplice {
	return &refSplice{
		rings:  make(map[Root][]Ptr),
		succAt: make(map[ident.ID]map[Root]Ptr),
		predAt: make(map[ident.ID]map[Root]Ptr),
	}
}

func refSearch(ring []Ptr, id ident.ID) int {
	return ident.Search(len(ring), func(k int) *ident.ID { return &ring[k].ID }, id)
}

func (r *refSplice) join(self Ptr, roots []Root) {
	r.succAt[self.ID] = make(map[Root]Ptr)
	r.predAt[self.ID] = make(map[Root]Ptr)
	for _, root := range roots {
		ring := r.rings[root]
		i := refSearch(ring, self.ID)
		if len(ring) > 0 {
			pred := ring[(i-1+len(ring))%len(ring)]
			succ := ring[i%len(ring)]
			r.predAt[self.ID][root] = pred
			r.succAt[self.ID][root] = succ
			r.succAt[pred.ID][root] = self
			r.predAt[succ.ID][root] = self
		} else {
			r.predAt[self.ID][root] = self
			r.succAt[self.ID][root] = self
		}
		ring = append(ring, Ptr{})
		copy(ring[i+1:], ring[i:])
		ring[i] = self
		r.rings[root] = ring
	}
}

func (r *refSplice) unlink(t *testing.T, self Ptr) {
	t.Helper()
	for root := range r.succAt[self.ID] {
		ring := r.rings[root]
		i := refSearch(ring, self.ID)
		if !(i < len(ring) && ring[i] == self) {
			t.Fatalf("reference ring %v does not hold %s at AS %d", root, self.ID.Short(), self.AS)
		}
		ring = append(ring[:i], ring[i+1:]...)
		r.rings[root] = ring
		if len(ring) == 0 {
			continue
		}
		n := len(ring)
		pred := ring[(i-1+n)%n]
		succ := ring[i%n]
		r.succAt[pred.ID][root] = succ
		r.predAt[succ.ID][root] = pred
	}
	delete(r.succAt, self.ID)
	delete(r.predAt, self.ID)
}

// compare checks every (node, level) of the Internet against the
// reference maps, and that the two hold the same nodes and levels.
func (r *refSplice) compare(t *testing.T, in *Internet, stage string) {
	t.Helper()
	if err := in.CheckRings(); err != nil {
		t.Fatalf("%s: %v", stage, err)
	}
	nodes := 0
	for _, as := range in.ases {
		for _, vn := range as.VNs {
			id := vn.ID
			nodes++
			if len(r.succAt[id]) != len(vn.levels) {
				t.Fatalf("%s: %s joined %d levels, reference %d", stage, id.Short(), len(vn.levels), len(r.succAt[id]))
			}
			for _, lv := range vn.levels {
				pred, succ := lv.neighbours(id)
				if want := r.succAt[id][lv.root]; succ != want {
					t.Fatalf("%s: successor of %s at %v = %v, reference %v", stage, id.Short(), lv.root, succ, want)
				}
				if want := r.predAt[id][lv.root]; pred != want {
					t.Fatalf("%s: predecessor of %s at %v = %v, reference %v", stage, id.Short(), lv.root, pred, want)
				}
			}
		}
	}
	if nodes != len(r.succAt) {
		t.Fatalf("%s: %d nodes joined, reference holds %d", stage, nodes, len(r.succAt))
	}
}

// failAS fails one AS in both: the reference unlinks the residents in
// identifier order and re-joins, in the same order, those a standby
// provider took over.
func (r *refSplice) failAS(t *testing.T, in *Internet, a topology.ASN) (migrated int) {
	t.Helper()
	var ids []ident.ID
	for _, vn := range in.AS(a).VNs {
		ids = append(ids, vn.ID)
	}
	removed := in.FailAS(a)
	for _, id := range ids {
		r.unlink(t, Ptr{ID: id, AS: a})
	}
	for _, id := range ids {
		if host, ok := in.HostingAS(id); ok {
			r.join(Ptr{ID: id, AS: host}, in.vnOf(id).Roots())
			migrated++
		}
	}
	if removed != len(ids)-migrated {
		t.Fatalf("FailAS(%d) reported %d removed of %d residents, %d of which migrated", a, removed, len(ids), migrated)
	}
	return migrated
}

// TestNeighboursMatchReferenceSplice drives one Internet and the map
// splice through the same seeded joins under all four strategies, leaves
// and AS failures with and without a standby host, and compares every
// node's neighbours at every level after each step.
func TestNeighboursMatchReferenceSplice(t *testing.T) {
	g := topology.GenAS(topology.ASGenConfig{
		Tier1: 3, Tier2: 10, Stubs: 32,
		Hosts: 1000, ZipfS: 1.1,
		PeerProb: 0.25, BackupProb: 0.4, Seed: 30,
	})
	in := New(g, sim.NewMetrics(), DefaultOptions())
	ref := newRefSplice()
	rng := rand.New(rand.NewSource(33))
	var pool []topology.ASN
	for a := 0; a < g.NumASes(); a++ {
		if g.Hosts(topology.ASN(a)) > 0 {
			pool = append(pool, topology.ASN(a))
		}
	}
	var ids []ident.ID // joined and not yet left
	next := 0
	join := func(stage string) {
		id := ident.FromString(fmt.Sprintf("splice-%d", next))
		s := Strategy(next % 4)
		next++
		at := pool[rng.Intn(len(pool))]
		for in.failedAS[at] {
			at = pool[rng.Intn(len(pool))]
		}
		res, err := in.Join(id, at, s)
		if err != nil {
			t.Fatalf("%s: join %s at AS %d (%v): %v", stage, id.Short(), at, s, err)
		}
		ids = append(ids, id)
		ref.join(Ptr{ID: id, AS: at}, res.VN.Roots())
		ref.compare(t, in, fmt.Sprintf("%s %d (%v at AS %d)", stage, next, s, at))
	}
	for i := 0; i < 160; i++ {
		join("join")
	}
	if n := in.levels[top].ring.Len(); n != 160 {
		t.Fatalf("Top ring holds %d of 160", n)
	}

	for i := 0; i < 30; i++ {
		k := rng.Intn(len(ids))
		id := ids[k]
		ids = slices.Delete(ids, k, k+1)
		host, _ := in.HostingAS(id)
		if err := in.Leave(id); err != nil {
			t.Fatal(err)
		}
		ref.unlink(t, Ptr{ID: id, AS: host})
		ref.compare(t, in, fmt.Sprintf("leave %d", i))
	}

	// populated returns the live stub hosting the most identifiers.
	populated := func() topology.ASN {
		best := topology.ASN(-1)
		for _, s := range g.Stubs() {
			if !in.failedAS[s] && (best < 0 || len(in.AS(s).VNs) > len(in.AS(best).VNs)) {
				best = s
			}
		}
		if best < 0 || len(in.AS(best).VNs) < 2 {
			t.Fatal("no stub hosts two identifiers")
		}
		return best
	}
	// With a standby: every other resident of the stub migrates to the
	// stub's first provider.
	victim := populated()
	var residents []ident.ID
	for _, vn := range in.AS(victim).VNs {
		residents = append(residents, vn.ID)
	}
	standby := g.PrimaryProviders(victim)[0]
	for i := 0; i < len(residents); i += 2 {
		if err := in.HostVirtual(residents[i], standby); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := ref.failAS(t, in, victim), (len(residents)+1)/2; got != want {
		t.Fatalf("%d identifiers migrated to AS %d, want %d", got, standby, want)
	}
	ref.compare(t, in, "AS failure with standby hosts")

	// Without one: every resident is torn down.
	if got := ref.failAS(t, in, populated()); got != 0 {
		t.Fatalf("%d identifiers migrated with no standby arranged", got)
	}
	ref.compare(t, in, "AS failure without standby hosts")

	// The survivors keep accepting newcomers.
	for i := 0; i < 40; i++ {
		join("rejoin")
	}
}

package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// ISPConfig parameterizes the Rocketfuel-like ISP generator. The paper
// simulates four ISPs mapped from Rocketfuel traces (§6.1); we cannot
// ship those traces, so the generator reproduces the structural
// properties the results depend on — router count, PoP structure
// (backbone + access routers), backbone meshiness, and hop diameter in
// the Rocketfuel range — per the substitution table in DESIGN.md.
type ISPConfig struct {
	Name           string
	Routers        int     // total routers (transit + access)
	PoPs           int     // number of Points of Presence
	BackbonePerPoP int     // backbone routers in each PoP
	PoPDegree      int     // inter-PoP links per PoP (>=1 keeps it connected)
	IntraPoPDelay  float64 // ms, access<->backbone
	InterPoPDelay  float64 // ms mean, backbone<->backbone across PoPs
	Hosts          int     // total hosts attached, Zipf across access routers
	ZipfS          float64 // Zipf skew for host placement (>1)
	Seed           int64
}

// The four evaluation ISPs, sized to the Rocketfuel router counts in
// §6.1. Host counts are scaled down ~1000x from the paper's skitter
// estimates (2.6M, 10M, 0.5M, 2.1M) to keep laptop-scale runs fast; the
// paper's per-host metrics (join overhead, stretch) are intensive
// quantities unaffected by the scale-down, and Fig 5a's extensive series
// is swept explicitly by the experiment driver.
var (
	AS1221 = ISPConfig{Name: "AS1221", Routers: 318, PoPs: 28, BackbonePerPoP: 2, PoPDegree: 5, IntraPoPDelay: 0.5, InterPoPDelay: 6, Hosts: 2600, ZipfS: 1.2, Seed: 1221}
	as1239 = ISPConfig{Name: "AS1239", Routers: 604, PoPs: 43, BackbonePerPoP: 3, PoPDegree: 7, IntraPoPDelay: 0.4, InterPoPDelay: 8, Hosts: 10000, ZipfS: 1.2, Seed: 1239}
	AS3257 = ISPConfig{Name: "AS3257", Routers: 240, PoPs: 24, BackbonePerPoP: 2, PoPDegree: 5, IntraPoPDelay: 0.5, InterPoPDelay: 7, Hosts: 500, ZipfS: 1.2, Seed: 3257}
	AS3967 = ISPConfig{Name: "AS3967", Routers: 201, PoPs: 21, BackbonePerPoP: 2, PoPDegree: 5, IntraPoPDelay: 0.5, InterPoPDelay: 6, Hosts: 2100, ZipfS: 1.2, Seed: 3967}
)

// EvalISPs returns the paper's four evaluation topologies in figure
// order.
func EvalISPs() []ISPConfig { return []ISPConfig{AS1221, as1239, AS3257, AS3967} }

// ISP is a generated intradomain topology: the router graph plus the
// access routers hosts attach to and the host spread across them.
type ISP struct {
	Name     string
	Graph    *Graph
	Backbone []NodeID // transit routers (paper: where resident IDs live)
	Access   []NodeID // edge routers hosts attach to
	// HostsAt[i] is the number of hosts assigned to Access[i] by the
	// Zipf placement; experiment drivers use it as a sampling weight.
	HostsAt []int
}

// GenISP builds a deterministic ISP-like topology from cfg.
//
// Structure: cfg.PoPs PoPs, each with BackbonePerPoP backbone routers
// (full mesh inside the PoP) and an even share of the remaining routers
// as access routers, each homed to one or two backbone routers in its
// PoP. PoPs are linked in a ring (guaranteeing connectivity) plus
// PoPDegree-1 random chords, mirroring Rocketfuel's observed
// backbone-ring-with-shortcuts shape.
func GenISP(cfg ISPConfig) *ISP {
	if cfg.PoPs < 1 || cfg.Routers < cfg.PoPs*(cfg.BackbonePerPoP+1) {
		panic(fmt.Sprintf("topology: ISP config %q infeasible: %d routers for %d PoPs", cfg.Name, cfg.Routers, cfg.PoPs))
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := NewGraph(cfg.Routers)
	isp := &ISP{Name: cfg.Name, Graph: g}

	backboneOf := make([][]NodeID, cfg.PoPs)
	nBackbone := cfg.PoPs * cfg.BackbonePerPoP
	for p := 0; p < cfg.PoPs; p++ {
		for i := 0; i < cfg.BackbonePerPoP; i++ {
			n := g.AddNode()
			g.SetPoP(n, p)
			backboneOf[p] = append(backboneOf[p], n)
			isp.Backbone = append(isp.Backbone, n)
		}
		// Full mesh among the PoP's backbone routers.
		for i := 0; i < len(backboneOf[p]); i++ {
			for j := i + 1; j < len(backboneOf[p]); j++ {
				g.AddEdge(backboneOf[p][i], backboneOf[p][j], cfg.IntraPoPDelay)
			}
		}
	}

	// Inter-PoP ring plus random chords.
	interDelay := func() float64 { return cfg.InterPoPDelay * (0.5 + rng.Float64()) }
	link := func(p, q int) {
		a := backboneOf[p][rng.Intn(len(backboneOf[p]))]
		b := backboneOf[q][rng.Intn(len(backboneOf[q]))]
		if !g.HasEdge(a, b) {
			g.AddEdge(a, b, interDelay())
		}
	}
	for p := 0; p < cfg.PoPs; p++ {
		link(p, (p+1)%cfg.PoPs)
	}
	for p := 0; p < cfg.PoPs; p++ {
		for k := 1; k < cfg.PoPDegree; k++ {
			q := rng.Intn(cfg.PoPs)
			if q != p {
				link(p, q)
			}
		}
	}

	// Access routers, spread round-robin across PoPs. Rocketfuel access
	// routers are overwhelmingly dual-homed to their PoP's backbone; the
	// resulting average degree (~4-7) is what gives the generated maps
	// Rocketfuel-like link counts.
	nAccess := cfg.Routers - nBackbone
	for i := 0; i < nAccess; i++ {
		p := i % cfg.PoPs
		n := g.AddNode()
		g.SetPoP(n, p)
		home := backboneOf[p][rng.Intn(len(backboneOf[p]))]
		g.AddEdge(n, home, cfg.IntraPoPDelay)
		for _, other := range backboneOf[p] {
			if other != home {
				g.AddEdge(n, other, cfg.IntraPoPDelay)
			}
		}
		isp.Access = append(isp.Access, n)
	}

	isp.HostsAt = zipfSpread(cfg.Hosts, len(isp.Access), cfg.ZipfS, rng)
	return isp
}

// zipfSpread distributes total units over n bins with Zipf(s) weights in
// a random bin order, modeling skitter's "highly uneven distribution of
// hosts" (§6.3). The counts sum exactly to total.
func zipfSpread(total, n int, s float64, rng *rand.Rand) []int {
	if n <= 0 {
		return nil
	}
	weights := make([]float64, n)
	var sum float64
	for i := range weights {
		weights[i] = 1 / math.Pow(float64(i+1), s)
		sum += weights[i]
	}
	// Shuffle which bin gets which rank so heavy bins aren't always the
	// low indexes.
	perm := rng.Perm(n)
	out := make([]int, n)
	assigned := 0
	for rank, w := range weights {
		c := int(float64(total) * w / sum)
		out[perm[rank]] = c
		assigned += c
	}
	// Distribute the rounding remainder one unit at a time.
	for i := 0; assigned < total; i++ {
		out[perm[i%n]]++
		assigned++
	}
	return out
}

package topology

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file parses the two public dataset formats the paper's evaluation
// was built from, so that anyone holding the actual files can run this
// repository's experiments on them instead of the generated substitutes:
//
//   - Rocketfuel router-level maps (the ".cch" format of Spring,
//     Mahajan, Wetherall: "Measuring ISP topologies with Rocketfuel"),
//     one router per line:
//
//       uid @loc [+] [bb] (num_neigh) [&ext] -> <nuid-1> ... =name rn
//
//   - CAIDA/Routeviews AS-relationship files (the serial-1 format used
//     with the Subramanian-style inference the paper cites):
//
//       as1|as2|rel        with rel -1 = as1 is provider of as2,
//                               rel  0 = peers
//
// Lines starting with '#' are comments in both formats.

// ParseRocketfuel reads a Rocketfuel .cch router-level map into an ISP.
// Backbone routers are those flagged "bb"; every other router is access.
// Link weights default to weight (ms) since .cch files carry no
// latencies; hosts are spread over access routers with zipfSpread-like
// proportionality left to the caller (HostsAt is zeroed).
func ParseRocketfuel(r io.Reader, name string, weight float64) (*ISP, error) {
	if weight <= 0 {
		weight = 1
	}
	type rawRouter struct {
		uid       int
		backbone  bool
		neighbors []int
	}
	var routers []rawRouter
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// External-address lines in .cch start with a negative uid;
		// they represent links to other ASes and are skipped for the
		// intradomain map.
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("topology: %s:%d: short line", name, lineNo)
		}
		uid, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("topology: %s:%d: bad uid %q", name, lineNo, fields[0])
		}
		if uid < 0 {
			continue
		}
		rr := rawRouter{uid: uid}
		for _, f := range fields[1:] {
			switch {
			case f == "bb":
				rr.backbone = true
			case strings.HasPrefix(f, "<") && strings.HasSuffix(f, ">"):
				n, err := strconv.Atoi(f[1 : len(f)-1])
				if err != nil {
					return nil, fmt.Errorf("topology: %s:%d: bad neighbor %q", name, lineNo, f)
				}
				rr.neighbors = append(rr.neighbors, n)
			}
		}
		routers = append(routers, rr)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("topology: reading %s: %w", name, err)
	}
	if len(routers) == 0 {
		return nil, fmt.Errorf("topology: %s: no routers", name)
	}

	g := NewGraph(len(routers))
	nodeOf := make(map[int]NodeID, len(routers))
	isp := &ISP{Name: name, Graph: g}
	for _, rr := range routers {
		n := g.AddNode()
		nodeOf[rr.uid] = n
		if rr.backbone {
			isp.Backbone = append(isp.Backbone, n)
		} else {
			isp.Access = append(isp.Access, n)
		}
	}
	for _, rr := range routers {
		from := nodeOf[rr.uid]
		for _, nb := range rr.neighbors {
			to, ok := nodeOf[nb]
			if !ok {
				continue // neighbor outside the parsed map (external)
			}
			if from != to && !g.HasEdge(from, to) {
				g.AddEdge(from, to, weight)
			}
		}
	}
	// Degenerate maps with no "bb" flags: treat the highest-degree decile
	// as backbone so the ISP is still usable.
	if len(isp.Backbone) == 0 {
		isp.Backbone, isp.Access = splitByDegree(g, isp.Access)
	}
	isp.HostsAt = make([]int, len(isp.Access))
	return isp, nil
}

func splitByDegree(g *Graph, all []NodeID) (backbone, access []NodeID) {
	max := 0
	for _, n := range all {
		if g.Degree(n) > max {
			max = g.Degree(n)
		}
	}
	threshold := max / 2
	if threshold < 1 {
		threshold = 1
	}
	for _, n := range all {
		if g.Degree(n) >= threshold {
			backbone = append(backbone, n)
		} else {
			access = append(access, n)
		}
	}
	if len(backbone) == 0 {
		backbone = all[:1]
		access = all[1:]
	}
	return backbone, access
}

// ParseASRelationships reads a CAIDA serial-1 AS-relationship file into
// an ASGraph. AS numbers are remapped to dense indices; Index reports
// the mapping. Tiers are inferred: ASes with no providers are tier 1,
// ASes with no customers are tier 3 (stubs), the rest tier 2 — the same
// coarse hierarchy the paper's experiments rely on.
func ParseASRelationships(r io.Reader) (*ASGraph, map[int]ASN, error) {
	type rel struct {
		a, b, kind int
	}
	var rels []rel
	index := map[int]ASN{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	intern := func(asn int) {
		if _, ok := index[asn]; !ok {
			index[asn] = ASN(len(index))
		}
	}
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, "|")
		if len(parts) < 3 {
			return nil, nil, fmt.Errorf("topology: line %d: want as1|as2|rel", lineNo)
		}
		a, err1 := strconv.Atoi(parts[0])
		b, err2 := strconv.Atoi(parts[1])
		k, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, nil, fmt.Errorf("topology: line %d: bad numbers", lineNo)
		}
		if k != -1 && k != 0 {
			return nil, nil, fmt.Errorf("topology: line %d: unknown relationship %d", lineNo, k)
		}
		intern(a)
		intern(b)
		rels = append(rels, rel{a, b, k})
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("topology: reading relationships: %w", err)
	}
	if len(index) == 0 {
		return nil, nil, fmt.Errorf("topology: no relationships")
	}
	g := NewASGraph(len(index))
	for _, rl := range rels {
		a, b := index[rl.a], index[rl.b]
		if a == b {
			continue
		}
		if rl.kind == 0 {
			g.SetRelation(a, b, RelPeer)
		} else {
			// a is provider of b ⇒ from b's view a is its provider.
			g.SetRelation(b, a, RelProvider)
		}
	}
	// Infer tiers.
	for _, dense := range index {
		switch {
		case len(g.PrimaryProviders(dense)) == 0:
			g.SetTier(dense, 1)
		case len(g.Customers(dense)) == 0:
			g.SetTier(dense, 3)
		default:
			g.SetTier(dense, 2)
		}
	}
	return g, index, nil
}

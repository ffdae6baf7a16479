package main

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/simrng"
)

// The node workloads' inputs. Everything here is a pure function of
// the seed: the harness builds libraries, topologies and request
// streams, and the nodes receive only those.

// fleetQuery is one client request: which node issues it, for which
// item.
type fleetQuery struct{ Origin, Item int }

// fleetInputs are the inputs of node-fleet.
type fleetInputs struct {
	// Keywords[k] is the query keyword of item k; a file of item k is
	// named Keywords[k] + ".dat".
	Keywords []string
	// Libraries[n] are the file names node n shares.
	Libraries [][]string
	// Bootstrap[n] are the nodes seeded into node n's link cache.
	Bootstrap [][]int
	// Streams[c] is client c's request sequence, replayed cyclically.
	Streams [][]fleetQuery
}

// genFleet builds the fleet's inputs. Libraries hold two to ten items
// drawn by popularity, so popular items are widely replicated and rare
// ones are not; every item ends up on at least two nodes, so a query
// for it can be answered by someone other than its issuer.
func genFleet(seed uint64, nodes, items, bootstrap, clients, streamLen int) fleetInputs {
	root := simrng.New(seed)
	pop := dist.MustZipf(items, 1) // item k has weight 1/(k+1)
	in := fleetInputs{
		Keywords:  make([]string, items),
		Libraries: make([][]string, nodes),
		Bootstrap: make([][]int, nodes),
		Streams:   make([][]fleetQuery, clients),
	}
	for k := range in.Keywords {
		in.Keywords[k] = fmt.Sprintf("item-%03d", k)
	}

	rLib := root.Stream("libraries")
	holds := make([]map[int]bool, nodes)
	holders := make([]int, items)
	for n := range holds {
		holds[n] = make(map[int]bool)
		size := min(2+rLib.Intn(9), items)
		for len(holds[n]) < size {
			k := pop.Rank(rLib)
			if !holds[n][k] {
				holds[n][k] = true
				holders[k]++
			}
		}
	}
	for k := 0; k < items; k++ {
		for holders[k] < min(2, nodes) {
			n := rLib.Intn(nodes)
			if !holds[n][k] {
				holds[n][k] = true
				holders[k]++
			}
		}
	}
	for n := range holds {
		for k := 0; k < items; k++ {
			if holds[n][k] {
				in.Libraries[n] = append(in.Libraries[n], in.Keywords[k]+".dat")
			}
		}
	}

	rBoot := root.Stream("bootstrap")
	for n := range in.Bootstrap {
		want := min(bootstrap, nodes-1)
		for _, peer := range rBoot.Perm(nodes) {
			if peer != n && len(in.Bootstrap[n]) < want {
				in.Bootstrap[n] = append(in.Bootstrap[n], peer)
			}
		}
	}

	for c := range in.Streams {
		r := root.Stream(fmt.Sprintf("client-%d", c))
		in.Streams[c] = make([]fleetQuery, streamLen)
		for i := range in.Streams[c] {
			in.Streams[c][i] = fleetQuery{Origin: r.Intn(nodes), Item: pop.Rank(r)}
		}
	}
	return in
}

// crowdInputs are the inputs of node-flashcrowd.
type crowdInputs struct {
	// NodeSeeds seed the server nodes and their sync clients.
	NodeSeeds []uint64
	// LightHome[i] is the node light requester i probes; LightPhase[i]
	// is when in the first interval its schedule starts.
	LightHome  []int
	LightPhase []time.Duration
	// HeavyStart is the node the heavy requester's rotation starts at.
	HeavyStart int
}

func genCrowd(seed uint64, nodes, light int, interval time.Duration) crowdInputs {
	root := simrng.New(seed)
	in := crowdInputs{
		NodeSeeds:  make([]uint64, nodes),
		LightHome:  make([]int, light),
		LightPhase: make([]time.Duration, light),
	}
	rNode := root.Stream("nodes")
	for i := range in.NodeSeeds {
		in.NodeSeeds[i] = rNode.Uint64() | 1
	}
	rLight := root.Stream("light")
	for i := range in.LightHome {
		// Round-robin homes keep the in-capacity load even across the
		// nodes; the phase spreads the requesters over the interval.
		in.LightHome[i] = i % nodes
		in.LightPhase[i] = time.Duration(rLight.Float64() * float64(interval))
	}
	in.HeavyStart = root.Stream("heavy").Intn(nodes)
	return in
}

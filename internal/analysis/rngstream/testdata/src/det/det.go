// Package det poses as repro/internal/core to exercise the rngstream
// analyzer: simrng use must follow the named-stream discipline.
package det

import (
	"repro/internal/simrng"
)

const churnStream = "churn"

// namedStreams is the discipline: every component derives its stream
// by a compile-time constant name.
func namedStreams(seed uint64) (*simrng.RNG, *simrng.RNG) {
	root := simrng.New(seed)
	return root.Stream("workload"), root.Stream(churnStream)
}

// dynamicStreamName forks a fresh stream name per call.
func dynamicStreamName(root *simrng.RNG, peer string) *simrng.RNG {
	return root.Stream("peer:" + peer) // want `Stream name must be a compile-time string constant`
}

// reseedFromSibling couples the child's sequence to the sibling's draw
// count.
func reseedFromSibling(sibling *simrng.RNG) *simrng.RNG {
	return simrng.New(sibling.Uint64()) // want `seeding a generator from a sibling stream's output`
}

// reseedFromValue is fine: the seed is plain data, not a stream draw.
func reseedFromValue(seed uint64) *simrng.RNG {
	return simrng.New(seed + 1)
}

// engine keeps its streams unexported: the discipline.
type engine struct {
	rngChurn    *simrng.RNG
	rngWorkload *simrng.RNG
}

// Shared exports an RNG field, inviting cross-component stream sharing.
type Shared struct {
	RNG *simrng.RNG // want `exported simrng.RNG field shares one stream across components`

	Name string
}

// annotated documents why a dynamic name is safe here.
func annotated(root *simrng.RNG, trial int) *simrng.RNG {
	//lint:rngstream-ok fixture: trial index is part of the experiment's static plan
	return root.Stream(streamName(trial))
}

func streamName(i int) string {
	if i == 0 {
		return "trial0"
	}
	return "trialN"
}

// aliasRNG and rngPtr spell the generator through type aliases, which
// go/types keeps as *types.Alias: the check must see through them.
type (
	aliasRNG = simrng.RNG
	rngPtr   = *simrng.RNG
)

// SharedAlias exports RNG fields spelled through the aliases.
type SharedAlias struct {
	Stream *aliasRNG // want `exported simrng.RNG field shares one stream across components`
	Ptr    rngPtr    // want `exported simrng.RNG field shares one stream across components`
}

// Package exempt poses as repro/node/memnet, which is outside the
// deterministic set: the fault injector derives per-link streams with
// dynamic names, and that is fine there.
package exempt

import (
	"repro/internal/simrng"
)

func perLink(root *simrng.RNG, link string) *simrng.RNG {
	return root.Stream("link:" + link)
}

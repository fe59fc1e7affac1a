//go:build !race

package core

// raceEnabled mirrors the runtime's race-detector flag for tests: the
// race build of sync.Pool randomly drops Puts (poolRaceHack), so
// allocation guards on pooled workers only hold in non-race builds.
const raceEnabled = false

//go:build race

package serve

// raceEnabled reports a -race build, whose sync.Pool randomly drops items
// by design, so steady-state allocation counts do not apply.
const raceEnabled = true

//go:build race

package rollingjoin

// raceEnabled reports a build with the race detector.
const raceEnabled = true

//go:build race

package main

// raceEnabled reports whether this test binary was built with -race.
const raceEnabled = true

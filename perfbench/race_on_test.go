//go:build race

package main

// raceDetector reports a -race build, whose simulations run several times
// slower than the fixed interactive rate of the sweep assumes.
const raceDetector = true

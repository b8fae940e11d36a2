//go:build race

package iface

// raceEnabled gates the allocation-budget tests: the race detector
// instruments allocation sites and makes AllocsPerRun meaningless, so the
// zero-alloc gates run in the non-race CI pass.
const raceEnabled = true

//go:build !race

package loadgen

// scaleNodes sizes the big load test: 10k client goroutines (the
// runtime adds only its shard loops and delay lines, a few per core) in a
// normal test run. The race detector caps at 8192 goroutines, so the race
// build shrinks this in scale_race.go.
const scaleNodes = 10000

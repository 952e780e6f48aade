package manet

// ForceWindowMode makes every window of w's sharded engine run direct
// (true) or parallel (false). It hands the engine's unexported mode hook
// to the external sweep benchmark (window_bench_test.go, which imports
// the harness and so cannot live in this package); w must be started.
func (w *World) ForceWindowMode(direct bool) {
	w.shard.forceDirect = func() bool { return direct }
}

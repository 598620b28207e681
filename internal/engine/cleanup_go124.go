//go:build go1.24

package engine

import "runtime"

// registerEngineCleanup releases an un-Closed engine's runtime goroutines
// when the engine becomes unreachable. On Go 1.24+ this is runtime.AddCleanup
// on the shard runner, which deliberately holds no reference to the engine.
func registerEngineCleanup(e *Engine, s *shardRunner) {
	runtime.AddCleanup(e, (*shardRunner).stop, s)
}

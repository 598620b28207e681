//go:build !go1.24

package engine

import "runtime"

// registerEngineCleanup releases an un-Closed engine's runtime goroutines
// when the engine becomes unreachable. Before Go 1.24 (no runtime.AddCleanup)
// this is a finalizer; it only captures the shard runner, never the engine,
// so the engine stays collectable.
func registerEngineCleanup(e *Engine, s *shardRunner) {
	runtime.SetFinalizer(e, func(*Engine) { s.stop() })
}

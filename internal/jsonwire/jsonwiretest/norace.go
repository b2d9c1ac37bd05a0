//go:build !race

package jsonwiretest

// Race reports a -race build, where sync.Pool drops a share of what is
// put back, so allocation counts of pooled decoders are not meaningful.
const Race = false

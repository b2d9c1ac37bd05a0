package engine_test

import (
	"testing"

	"wolves/internal/history"
)

// TestRegistryRandomMutationEquivalence checks a random history of
// registrations, mutation batches, view attach and detach and
// corrections: every maintained report stays reflect.DeepEqual to
// ValidateView over a fresh oracle, and a rejected batch answers the
// model's typed code and leaves no trace.
func TestRegistryRandomMutationEquivalence(t *testing.T) {
	history.Run(t, history.Config{Layer: history.Registry, Seed: 123, Tasks: [2]int{24, 83},
		Mix: map[history.Kind]int{history.Register: 1, history.Mutate: 35, history.Grow: 5, history.Attach: 2,
			history.Detach: 1, history.Correct: 1}}, 200)
}

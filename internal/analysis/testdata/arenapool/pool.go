// Fixture: arenas outlive a run only on the shared free list. The
// fixture loads as the free list's own package, so List below stands in
// for freelist.List; every other package-level home for an arena is an
// ad-hoc pool.
package freelist

import "sync"

//gnnvet:arena
type stageArena struct {
	ints []int
}

// List is the shared free list.
type List[T any] struct {
	mu    sync.Mutex
	items []T
}

// set is a run's arenas, recycled by position.
type set struct {
	arenas []*stageArena
}

// The shared free list is the sanctioned pool: clean.
var freeSets List[[]*stageArena]

// Package state that holds no arena is not a pool: clean.
var counts []int

// An ad-hoc list keeps arenas across runs without the release point.
var adhoc struct { // want `package-level adhoc holds stageArena arenas outside the shared free list`
	mu   sync.Mutex
	list []*stageArena
}

var lastArena *stageArena // want `package-level lastArena holds stageArena arenas`

var cachedSets = map[int]*set{} // want `package-level cachedSets holds stageArena arenas`

//gnnvet:allow arenaescape — fixture: the marker is the audit
var audited []stageArena

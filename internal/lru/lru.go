// Package lru is a bounded map that evicts its least recently used
// entry. The session layer (internal/state) keeps its live sessions
// and each session's identity memo in it, and the per-session encode
// and fragment caches (internal/core) their tables, so each holds a
// working set instead of a history.
//
// Eviction is deterministic: the victim is the tail of a recency list,
// a pure function of the Get/Put sequence, never chosen by iterating a
// map.
package lru

import (
	"container/list"
	"fmt"

	"rulefit/internal/invariant"
)

// Cache maps string keys to values and holds at most its capacity of
// them. Get and Put make an entry the most recently used; a Put past
// capacity evicts the least recently used entry. A Cache is not safe
// for concurrent use: its owner serializes access.
type Cache[V any] struct {
	capacity int
	items    map[string]*list.Element
	order    *list.List // of *entry[V], most recently used first
}

type entry[V any] struct {
	key string
	val V
}

// New returns an empty cache holding at most capacity entries.
func New[V any](capacity int) *Cache[V] {
	if capacity < 1 {
		panic(fmt.Sprintf("lru: capacity %d, want at least 1", capacity))
	}
	return &Cache[V]{capacity: capacity, items: make(map[string]*list.Element), order: list.New()}
}

// Get returns the value stored under key and refreshes the entry, or
// reports a miss.
func (c *Cache[V]) Get(key string) (V, bool) {
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*entry[V]).val, true
}

// Put stores val under key as the most recently used entry. If that
// takes the cache past capacity, Put evicts the least recently used
// entry and returns its key.
func (c *Cache[V]) Put(key string, val V) (evicted string, ok bool) {
	if el, hit := c.items[key]; hit {
		el.Value.(*entry[V]).val = val
		c.order.MoveToFront(el)
	} else {
		c.items[key] = c.order.PushFront(&entry[V]{key: key, val: val})
		if c.order.Len() > c.capacity {
			oldest := c.order.Remove(c.order.Back()).(*entry[V])
			delete(c.items, oldest.key)
			evicted, ok = oldest.key, true
		}
	}
	c.check()
	return evicted, ok
}

// Remove deletes the entry stored under key and reports whether there
// was one.
func (c *Cache[V]) Remove(key string) bool {
	el, ok := c.items[key]
	if !ok {
		return false
	}
	c.order.Remove(el)
	delete(c.items, key)
	c.check()
	return true
}

// check asserts, in rulefitdebug builds, that the key map and the
// recency list agree and respect the capacity.
func (c *Cache[V]) check() {
	if invariant.Enabled {
		invariant.Assert(c.order.Len() == len(c.items) && len(c.items) <= c.capacity,
			"lru: %d map entries, %d recency entries, capacity %d", len(c.items), c.order.Len(), c.capacity)
	}
}

// Len counts the stored entries.
func (c *Cache[V]) Len() int { return len(c.items) }

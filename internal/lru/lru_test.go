package lru

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// keys lists the cache's keys, most recently used first.
func keys[V any](c *Cache[V]) []string {
	var out []string
	for el := c.order.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry[V]).key)
	}
	return out
}

// TestHitRefreshes: a hit makes an entry the most recently used, so it
// survives the evictions that insertion (FIFO) order would make.
func TestHitRefreshes(t *testing.T) {
	c := New[int](3)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("c", 3)
	for i := 0; i < 3; i++ {
		if v, ok := c.Get("a"); !ok || v != 1 {
			t.Fatalf("round %d: Get(a) = %d, %v; want 1, true", i, v, ok)
		}
		c.Put(fmt.Sprintf("new%d", i), 10+i) // FIFO would evict a first
	}
	if got, want := keys(c), []string{"new2", "a", "new1"}; !slices.Equal(got, want) {
		t.Fatalf("keys = %v, want %v", got, want)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
}

// TestPutReplacesAndRefreshes: a Put on a live key replaces its value
// and refreshes it without growing the cache.
func TestPutReplacesAndRefreshes(t *testing.T) {
	c := New[int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	c.Put("a", 10)
	c.Put("c", 3)
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("Get(a) = %d, %v; want 10, true", v, ok)
	}
	if _, ok := c.Get("b"); ok || c.Len() != 2 {
		t.Fatalf("want b evicted and Len 2, got Len %d", c.Len())
	}
}

// TestEvictionOrderDeterministic replays a seeded Get/Put/Remove
// stream and checks every evicted key, and the recency order after
// every call, against a slice model of least-recently-used eviction,
// so the victim never depends on map iteration order.
func TestEvictionOrderDeterministic(t *testing.T) {
	const capacity = 5
	for seed := int64(1); seed <= 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		c := New[int](capacity)
		var model []string // most recently used first
		drop := func(k string) bool {
			i := slices.Index(model, k)
			if i >= 0 {
				model = slices.Delete(model, i, i+1)
			}
			return i >= 0
		}
		for op := 0; op < 2000; op++ {
			k := fmt.Sprintf("k%d", rng.Intn(12))
			switch rng.Intn(5) {
			case 0, 1:
				_, hit := c.Get(k)
				if want := slices.Contains(model, k); hit != want {
					t.Fatalf("seed %d op %d: Get(%s) hit=%v, want %v", seed, op, k, hit, want)
				}
				if hit {
					drop(k)
					model = slices.Insert(model, 0, k)
				}
			case 2, 3:
				victim, evicted := c.Put(k, op)
				drop(k)
				model = slices.Insert(model, 0, k)
				want := ""
				if len(model) > capacity {
					want, model = model[capacity], model[:capacity]
				}
				if evicted != (want != "") || victim != want {
					t.Fatalf("seed %d op %d: Put(%s) evicted %q (%v), want %q", seed, op, k, victim, evicted, want)
				}
			default:
				if got, want := c.Remove(k), drop(k); got != want {
					t.Fatalf("seed %d op %d: Remove(%s) = %v, want %v", seed, op, k, got, want)
				}
			}
			if got := keys(c); !slices.Equal(got, model) || c.Len() != len(model) {
				t.Fatalf("seed %d op %d: order %v (Len %d), want %v", seed, op, got, c.Len(), model)
			}
		}
	}
}

func TestNewRejectsZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New[int](0)
}

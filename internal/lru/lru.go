// Package lru is a bounded map with least-recently-used eviction, the
// one session cache behind pqed's estimator sessions and the shard
// worker's.
package lru

import "container/list"

// Cache maps keys to values and keeps at most max of them, dropping
// the least recently used past that. It is not synchronized: callers
// hold their own lock.
type Cache[K comparable, V any] struct {
	max   int
	items map[K]*list.Element // key -> element holding *entry
	order *list.List          // front = most recently used
}

type entry[K comparable, V any] struct {
	key K
	val V
}

// New returns an empty cache holding at most max entries.
func New[K comparable, V any](max int) *Cache[K, V] {
	return &Cache[K, V]{max: max, items: make(map[K]*list.Element), order: list.New()}
}

// Get returns key's value and marks it most recently used.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*entry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put stores val under key as the most recently used entry and returns
// how many entries it evicted.
func (c *Cache[K, V]) Put(key K, val V) (evicted int) {
	if el, ok := c.items[key]; ok {
		el.Value.(*entry[K, V]).val = val
		c.order.MoveToFront(el)
		return 0
	}
	c.items[key] = c.order.PushFront(&entry[K, V]{key: key, val: val})
	for len(c.items) > c.max {
		c.remove(c.order.Back())
		evicted++
	}
	return evicted
}

// Len reports the number of entries.
func (c *Cache[K, V]) Len() int { return len(c.items) }

func (c *Cache[K, V]) remove(el *list.Element) {
	c.order.Remove(el)
	delete(c.items, el.Value.(*entry[K, V]).key)
}

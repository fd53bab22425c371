package lru

import "testing"

func TestEvictsLeastRecentlyUsed(t *testing.T) {
	c := New[string, int](2)
	if n := c.Put("a", 1) + c.Put("b", 2); n != 0 {
		t.Fatalf("evicted %d entries under capacity", n)
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	// "a" was used last, so "b" goes.
	if n := c.Put("c", 3); n != 1 {
		t.Fatalf("Put past capacity evicted %d entries, want 1", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Error("least recently used entry survived")
	}
	if n := c.Put("a", 10); n != 0 || c.Len() != 2 {
		t.Errorf("replacing a key evicted %d entries, len %d", n, c.Len())
	}
	if v, _ := c.Get("a"); v != 10 {
		t.Errorf("Get(a) after replace = %d, want 10", v)
	}
}

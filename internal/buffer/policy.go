// Package buffer implements the buffer manager service of the SBDMS
// storage layer (the Buffer Manager of Figures 5-7): a fixed pool of
// page frames over any storage.PageStore, with pin/unpin semantics,
// dirty-page write-back, LRU replacement per lock stripe and a WAL hook
// so that dirty pages are never evicted ahead of their log records.
package buffer

import "container/list"

// Policy is one stripe's page replacement state: least recently used
// over frame indices. It is not safe for concurrent use; the manager
// serialises access under the stripe mutex.
type Policy struct {
	order *list.List // front = most recent
	elem  map[int]*list.Element
}

// NewLRU creates an empty least-recently-used replacement state.
func NewLRU() *Policy {
	return &Policy{order: list.New(), elem: make(map[int]*list.Element)}
}

// NewPolicy returns NewLRU(); name is ignored. It stays only because
// the bench/ module still calls it; stage 3-0 deletes it together with
// New's policy argument and wal.Log.WindowSkips.
func NewPolicy(name string) *Policy { return NewLRU() }

// Inserted notifies that frame f now holds a freshly loaded page.
func (p *Policy) Inserted(f int) {
	if e, ok := p.elem[f]; ok {
		p.order.MoveToFront(e)
		return
	}
	p.elem[f] = p.order.PushFront(f)
}

// Touched notifies that frame f was accessed (pinned).
func (p *Policy) Touched(f int) { p.Inserted(f) }

// Removed notifies that frame f was evicted or invalidated.
func (p *Policy) Removed(f int) {
	if e, ok := p.elem[f]; ok {
		p.order.Remove(e)
		delete(p.elem, f)
	}
}

// Victim picks the least recently used frame among those for which
// evictable returns true, or -1 when none qualifies.
func (p *Policy) Victim(evictable func(int) bool) int {
	for e := p.order.Back(); e != nil; e = e.Prev() {
		f := e.Value.(int)
		if evictable(f) {
			return f
		}
	}
	return -1
}

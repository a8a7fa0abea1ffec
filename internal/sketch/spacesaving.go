package sketch

import (
	"fmt"
	"sort"

	"webcachesim/internal/container/pqueue"
)

// SpaceSaving tracks the k most frequent items of a stream with bounded
// error (Metwally et al.): when a new item arrives at a full table, it
// replaces the current minimum and inherits its count.
// The TinyLFU admission filter uses it as the frequency table behind its
// admit-if-more-popular-than-the-victim test, aged with Halve.
//
// Entries are kept in an indexed min-heap, so Add is O(log k). Each entry
// embeds its heap handle and a replacement reuses the victim's entry, so
// a full table allocates nothing per Add.
type SpaceSaving struct {
	entries map[string]*ssEntry
	queue   pqueue.Queue[*ssEntry]
	cap     int
}

type ssEntry struct {
	key   string
	count int64
	item  pqueue.Item[*ssEntry] // Value points back at the entry
}

// NewSpaceSaving creates a tracker for the top ≈capacity items.
func NewSpaceSaving(capacity int) (*SpaceSaving, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("sketch: space-saving capacity %d must be positive", capacity)
	}
	return &SpaceSaving{
		entries: make(map[string]*ssEntry, capacity),
		cap:     capacity,
	}, nil
}

// Add counts one occurrence of key.
func (s *SpaceSaving) Add(key string) {
	if e, ok := s.entries[key]; ok {
		e.count++
		s.queue.Update(&e.item, float64(e.count))
		return
	}
	var e *ssEntry
	if len(s.entries) < s.cap {
		e = &ssEntry{count: 1}
		e.item.Value = e
	} else {
		victim, err := s.queue.PopMin()
		if err != nil {
			// Unreachable: cap > 0 implies a non-empty queue here.
			return
		}
		// The newcomer takes over the victim's entry and heap handle.
		e = victim.Value
		delete(s.entries, e.key)
		e.count++
	}
	e.key = key
	s.entries[key] = e
	s.queue.Push(&e.item, float64(e.count))
}

// Count returns the estimated frequency of key and whether it is
// currently tracked. Untracked keys report (0, false); their true count
// is at most the current minimum in the table.
func (s *SpaceSaving) Count(key string) (int64, bool) {
	e, ok := s.entries[key]
	if !ok {
		return 0, false
	}
	return e.count, true
}

// Halve ages the table by halving every count, dropping
// entries whose count reaches zero. Periodic halving turns lifetime
// frequencies into an exponentially decayed estimate, so a formerly hot
// document stops outranking fresh arrivals within a few windows.
//
// The heap is updated in sorted key order, not map order: among entries
// tied at the minimum count, which one Add's replacement step picks
// depends on the heap's internal layout, and layout is a function of the
// update sequence. Randomized map iteration here would make that pick —
// and therefore TinyLFU admission decisions — vary between identical
// runs, violating the simulator's determinism boundary.
func (s *SpaceSaving) Halve() {
	keys := make([]string, 0, len(s.entries))
	for key := range s.entries {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		e := s.entries[key]
		e.count /= 2
		if e.count == 0 {
			s.queue.Remove(&e.item)
			delete(s.entries, key)
			continue
		}
		s.queue.Update(&e.item, float64(e.count))
	}
}

// Len returns the number of tracked items.
func (s *SpaceSaving) Len() int { return len(s.entries) }

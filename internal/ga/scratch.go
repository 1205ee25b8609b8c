package ga

// scratch is a free list of byte buffers: the pack, landing and reply
// buffers of one operation, borrowed from the backend and given back the
// way the LAPI backend's counters are. Contents are unspecified, so a
// borrower overwrites every byte it sends or reads. A buffer is given back
// only once nothing on either transport references it any more (DESIGN.md
// §9): after the Waitcntr on the origin counter of the Put or Get it was
// lent to, or as soon as an Amsend or an MPL Send returns, both of which
// copy the payload into packets before returning. Both runtimes serialize
// a task's activities and borrow and give never yield, so the list needs
// no lock.
type scratch struct {
	free [][]byte
}

// borrow returns an n-byte buffer: the most recently given one that is
// large enough, or a new one. When none is, the most recent is dropped, so
// the list never holds more buffers than were ever borrowed at once and
// grows to the sizes in use.
func (s *scratch) borrow(n int) []byte {
	last := len(s.free) - 1
	for i := last; i >= 0; i-- {
		if b := s.free[i]; cap(b) >= n {
			s.free[i] = s.free[last]
			s.free[last] = nil
			s.free = s.free[:last]
			return b[:n]
		}
	}
	if last >= 0 {
		s.free[last] = nil
		s.free = s.free[:last]
	}
	return make([]byte, n)
}

// give returns b to the free list.
func (s *scratch) give(b []byte) {
	s.free = append(s.free, b)
}

package kas

import "fmt"

// Fork returns a pool with an independent copy of this pool's watermark.
// The pool holds no frames — they live in the address space's physmap — so
// a fork's allocations materialize frames in the forked space only, while
// frames allocated before the fork are shared copy-on-write like any other
// frozen frame.
func (p *PhysPool) Fork() *PhysPool {
	return &PhysPool{pages: p.pages, next: p.next}
}

// Fork returns a copy-on-write child of the installed space: the address
// space is forked (sharing every frozen frame, see mem.AddressSpace.Fork),
// the pool watermark is carried over, and the layout plus region table —
// immutable after Install — are shared.
func (s *Space) Fork() (*Space, error) {
	as, err := s.AS.Fork()
	if err != nil {
		return nil, fmt.Errorf("kas: fork: %w", err)
	}
	return &Space{Layout: s.Layout, AS: as, Pool: s.Pool.Fork(), regionPFN: s.regionPFN}, nil
}

package kas

import (
	"fmt"

	"repro/internal/mem"
)

// PhysPool models the machine's physical memory: the frame numbers
// [0, size) and an allocation watermark. The frames themselves live in the
// installed address space, whose physmap at PhysmapBase is a demand-zero
// window over the whole pool (see Install): a frame exists once it is
// allocated or first stored to through the physmap, and any frame handed out
// for kernel image text, module text, kernel stacks, or heap objects is also
// — unless explicitly unmapped — readable and writable through its physmap
// synonym. That aliasing is precisely the hazard §5.1.1 describes, and what
// UnmapSynonyms exists to close.
type PhysPool struct {
	pages int // pool size in frames
	next  int // allocation watermark
}

// NewPhysPool creates a pool of the given size in bytes (page-rounded).
func NewPhysPool(size uint64) *PhysPool {
	return &PhysPool{pages: mem.PagesFor(size)}
}

// Alloc reserves n contiguous frame numbers, returning the first. The
// frames behind them come from Space.Alloc.
func (p *PhysPool) Alloc(n int) (pfn int, err error) {
	if p.next+n > p.pages {
		return 0, fmt.Errorf("kas: out of physical memory (%d pages requested, %d free)",
			n, p.pages-p.next)
	}
	pfn = p.next
	p.next += n
	return pfn, nil
}

// Mark returns the pool's current allocation watermark, for later Reset.
func (p *PhysPool) Mark() int { return p.next }

// Reset rewinds the allocation watermark to a previous Mark, releasing every
// frame handed out since (the Kernel.Snapshot/Restore machinery pairs this
// with the address-space rollback so post-snapshot allocations are reusable).
func (p *PhysPool) Reset(mark int) {
	if mark >= 0 && mark <= p.next {
		p.next = mark
	}
}

// PhysmapAddr returns the physmap virtual address of the given frame number.
func PhysmapAddr(pfn int) uint64 { return PhysmapBase + uint64(pfn)<<mem.PageShift }

// Space is an installed kernel address space: the layout mapped into an
// AddressSpace, backed by a physical pool with its physmap.
type Space struct {
	Layout *Layout
	AS     *mem.AddressSpace
	Pool   *PhysPool

	// regionPFN records the first physical frame of each mapped region so
	// synonyms can be located.
	regionPFN map[string]int
}

// Install declares the physmap and maps all of the layout's kernel-image
// regions into a fresh address space. The physmap is the space's demand-zero
// window over the whole pool, so it costs no frames until they are touched.
// Region frames come from the pool, so each region initially has a live
// physmap synonym (like a freshly booted kernel, before kR^X's synonym
// unmapping runs).
func Install(layout *Layout, pool *PhysPool) (*Space, error) {
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	as := mem.NewAddressSpace()
	if err := as.MapDemandZero(PhysmapBase, pool.pages); err != nil {
		return nil, fmt.Errorf("kas: mapping physmap: %w", err)
	}
	sp := &Space{Layout: layout, AS: as, Pool: pool, regionPFN: make(map[string]int)}
	for _, r := range layout.Regions {
		n := mem.PagesFor(r.Size)
		pfn, frames, err := sp.Alloc(n)
		if err != nil {
			return nil, err
		}
		if err := as.MapFrames(r.Start, frames, r.Perm); err != nil {
			return nil, fmt.Errorf("kas: mapping %s: %w", r.Name, err)
		}
		sp.regionPFN[r.Name] = pfn
	}
	return sp, nil
}

// RegionPFN returns the first physical frame number of a mapped region.
func (s *Space) RegionPFN(name string) (int, bool) {
	pfn, ok := s.regionPFN[name]
	return pfn, ok
}

// SynonymAddr returns the physmap alias of a kernel-image virtual address.
func (s *Space) SynonymAddr(va uint64) (uint64, bool) {
	for _, r := range s.Layout.Regions {
		if va >= r.Start && va < r.End() {
			pfn := s.regionPFN[r.Name]
			return PhysmapAddr(pfn) + (va - r.Start), true
		}
	}
	return 0, false
}

// UnmapCodeSynonyms removes the physmap aliases of every code-region page
// (the kR^X boot step: kernel code must not be readable through the data
// region). Returns the number of pages unmapped.
func (s *Space) UnmapCodeSynonyms() (int, error) {
	if s.Layout.Kind != KRX {
		return 0, nil
	}
	total := 0
	for _, r := range s.Layout.Regions {
		if !r.Code || r.Size == 0 {
			continue
		}
		pfn := s.regionPFN[r.Name]
		n := mem.PagesFor(r.Size)
		if err := s.AS.Unmap(PhysmapAddr(pfn), n); err != nil {
			return total, fmt.Errorf("kas: unmapping synonyms of %s: %w", r.Name, err)
		}
		total += n
	}
	return total, nil
}

// Alloc allocates n contiguous frames from the pool, returning the first
// frame number and the frames, materialized at their physmap addresses. A
// frame already stored to through the physmap before its allocation is
// returned as is — the same *Frame at both addresses, as §5.1.1's aliasing
// hazard requires.
func (s *Space) Alloc(n int) (pfn int, frames []*mem.Frame, err error) {
	pfn, err = s.Pool.Alloc(n)
	if err != nil {
		return 0, nil, err
	}
	frames, err = s.AS.FramesAt(PhysmapAddr(pfn), n)
	if err != nil {
		return 0, nil, fmt.Errorf("kas: allocating frames: %w", err)
	}
	return pfn, frames, nil
}

// AllocMapped allocates n pages from the pool and returns their physmap
// virtual address (how the simulation models kmalloc-style allocations:
// kernel stacks and heap objects live in the readable physmap region, which
// is why return addresses on kernel stacks are harvestable — §5.2.2).
func (s *Space) AllocMapped(n int) (uint64, error) {
	pfn, _, err := s.Alloc(n)
	if err != nil {
		return 0, err
	}
	return PhysmapAddr(pfn), nil
}

// MapModuleText allocates frames, maps them at va in the modules_text
// region with execute permission, copies code in through the physmap
// synonym, and then unmaps the synonym. Returns the frames for later
// unloading.
func (s *Space) MapModuleText(va uint64, code []byte) ([]*mem.Frame, int, error) {
	n := mem.PagesFor(uint64(len(code)))
	pfn, frames, err := s.Alloc(n)
	if err != nil {
		return nil, 0, err
	}
	if err := s.AS.MapFrames(va, frames, mem.PermX); err != nil {
		return nil, 0, err
	}
	if f := s.AS.StoreBytes(PhysmapAddr(pfn), code); f != nil {
		return nil, 0, f
	}
	if s.Layout.Kind == KRX {
		if err := s.AS.Unmap(PhysmapAddr(pfn), n); err != nil {
			return nil, 0, err
		}
	}
	return frames, pfn, nil
}

// UnmapModuleText reverses MapModuleText: zaps the frames (preventing code
// inference through recycled pages), unmaps the text mapping, and restores
// the physmap synonym.
func (s *Space) UnmapModuleText(va uint64, frames []*mem.Frame, pfn int) error {
	for _, f := range frames {
		f.Zap()
	}
	if err := s.AS.Unmap(va, len(frames)); err != nil {
		return err
	}
	if s.Layout.Kind == KRX {
		if err := s.AS.MapFrames(PhysmapAddr(pfn), frames, mem.PermRW); err != nil {
			return err
		}
	}
	return nil
}

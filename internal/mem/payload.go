package mem

// PageWords is the number of 8-byte words in one payload page.
const PageWords = PageSize / 8

// Payload is a word array stored as copy-on-write pages: PageWords
// words per page, the last page short so a tiny block stays tiny. A page
// is writable in place only by the one payload that owns it. Freezing a
// payload (a snapshot, or a Clone that shares its pages) drops that
// ownership, so the first write to a page afterwards copies it. Host
// work therefore follows the pages actually written, not the payload's
// size — μFork's fork-in-one-address-space, applied to Isomalloc
// blocks and PIE segments.
//
// A nil page reads as zeros and is materialized on its first write, so
// an untouched .bss tail costs nothing to create, share or snapshot.
type Payload struct {
	n     int
	pages []page
	// frozen marks a snapshot's payload, which is never written: every
	// writer panics, so a snapshot reads back its capture-time contents
	// forever and may be restored from any number of goroutines.
	frozen bool
	// freezes counts how often this payload's pages were shared. A
	// pointer from Ptr is valid only while the count is unchanged.
	freezes uint64
}

type page struct {
	w   []uint64 // nil: an all-zero page not yet materialized
	own bool     // written in place only while set; never set on a shared page
}

// NewPayload returns a zero-filled payload of n words.
func NewPayload(n int) *Payload {
	return &Payload{n: n, pages: make([]page, (n+PageWords-1)/PageWords)}
}

// Len returns the payload's length in words.
func (p *Payload) Len() int { return p.n }

// At returns word i.
func (p *Payload) At(i int) uint64 {
	if uint(i) >= uint(p.n) {
		panic("mem: payload index out of range")
	}
	w := p.pages[i/PageWords].w
	if w == nil {
		return 0
	}
	return w[i%PageWords]
}

// Set stores v in word i, copying the word's page first if it is
// shared.
func (p *Payload) Set(i int, v uint64) { *p.Ptr(i) = v }

// Ptr returns a writable pointer to word i, copying the word's page
// first if it is shared. The pointer stays valid only until the next
// freeze of p: callers that cache it must compare Freezes.
func (p *Payload) Ptr(i int) *uint64 {
	if uint(i) >= uint(p.n) {
		panic("mem: payload index out of range")
	}
	return &p.own(i / PageWords)[i%PageWords]
}

// own makes page pg private to p and returns its words.
func (p *Payload) own(pg int) []uint64 {
	if p.frozen {
		panic("mem: write to a frozen snapshot payload")
	}
	pp := &p.pages[pg]
	if !pp.own {
		w := make([]uint64, min(PageWords, p.n-pg*PageWords))
		copy(w, pp.w)
		pp.w, pp.own = w, true
	}
	return pp.w
}

// Freezes reports how many times p's pages have been shared.
func (p *Payload) Freezes() uint64 { return p.freezes }

// Words returns a flat copy of the payload.
func (p *Payload) Words() []uint64 {
	out := make([]uint64, p.n)
	for i, pg := range p.pages {
		copy(out[i*PageWords:], pg.w)
	}
	return out
}

// share returns the page table with every page unowned, and freezes p:
// all of its pages become shared, so its next write to each copies it.
// It also reports the bytes of the pages p owned — pages written since
// the previous freeze, which only now become visible to another payload.
func (p *Payload) share() (pages []page, fresh uint64) {
	pages = make([]page, len(p.pages))
	for i, pg := range p.pages {
		pages[i].w = pg.w
		if pg.own {
			fresh += uint64(len(pg.w)) * 8
			p.pages[i].own = false
		}
	}
	if !p.frozen {
		p.freezes++
	}
	return pages, fresh
}

// Clone returns a writable payload with p's contents, sharing every
// page with p until one side writes it. A frozen p is only read.
func (p *Payload) Clone() *Payload {
	pages, _ := p.share()
	return &Payload{n: p.n, pages: pages}
}

// freeze returns an immutable snapshot of p sharing its pages, and the
// bytes of the pages p had written since its previous freeze.
func (p *Payload) freeze() (*Payload, uint64) {
	pages, fresh := p.share()
	return &Payload{n: p.n, pages: pages, frozen: true}, fresh
}

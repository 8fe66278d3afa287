// Package pmem exercises the pmem-discipline analyzer: writing through
// or retaining a zero-copy Region view is flagged, while borrowing
// (decode and return) passes.
package pmem

import "learnedpieces/internal/pmem"

type cache struct {
	view []byte
}

var global []byte

// Mutate writes through a zero-copy view, directly and via copy.
func Mutate(r *pmem.Region) {
	v := r.ReadNoCopy(0, 16)
	v[0] = 1 // want "write through PMem-backed bytes"
	w := v[4:8]
	copy(w, []byte{1, 2}) // want "copy into PMem-backed bytes"
	t := r.ReadNoCopyTail(0, 16, 64)
	t[40] = 1 // want "write through PMem-backed bytes"
}

// Retain parks views beyond the call.
func Retain(r *pmem.Region, c *cache) {
	v := r.ReadNoCopy(0, 16)
	c.view = v     // want "retained in a struct field"
	global = v[2:] // want "retained in package variable global"
}

// Borrow reads through a view and returns it — both legal.
func Borrow(r *pmem.Region) ([]byte, byte) {
	v := r.ReadNoCopy(0, 8)
	return v[1:], v[0]
}

// Copied goes through the copying accessor and may do anything.
func Copied(r *pmem.Region, c *cache) {
	buf := make([]byte, 8)
	r.Read(0, buf)
	buf[0] = 1
	c.view = buf
}

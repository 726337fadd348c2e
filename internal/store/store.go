// Package store implements a HyperFile site's main-memory object store.
//
// Following the prototype in the paper (section 5), all search information —
// tuples with pointers, keywords, numbers, and short strings — is kept in
// memory, while large opaque data items are kept out of the search path on
// simulated "disk": a query never touches them unless it explicitly retrieves
// a large field with the "->" operator, in which case a disk read is counted.
package store

import (
	"errors"
	"fmt"
	"sync"

	"hyperfile/internal/object"
)

// DefaultLargeThreshold is the byte size above which an opaque data field is
// spilled out of the in-memory search representation.
const DefaultLargeThreshold = 4096

// ErrNotFound is returned when an object id has no local object.
var ErrNotFound = errors.New("store: object not found")

// ErrWrongSite is returned when storing an object whose id was allocated by a
// different store.
var ErrWrongSite = errors.New("store: object born at a different site")

// blobKey addresses one spilled data field.
type blobKey struct {
	id    object.ID
	tuple int
}

// Store is a thread-safe main-memory object store for one site.
// The zero value is not usable; use New.
type Store struct {
	mu      sync.RWMutex
	site    object.SiteID
	seq     uint64
	objects map[object.ID]*object.Object
	blobs   map[blobKey][]byte

	largeThreshold int
	diskReads      int
}

// Option configures a Store.
type Option func(*Store)

// WithLargeThreshold overrides the blob-spill threshold. A threshold of 0
// disables spilling entirely.
func WithLargeThreshold(n int) Option {
	return func(s *Store) { s.largeThreshold = n }
}

// New returns an empty store for the given site.
func New(site object.SiteID, opts ...Option) *Store {
	s := &Store{
		site:           site,
		objects:        make(map[object.ID]*object.Object),
		blobs:          make(map[blobKey][]byte),
		largeThreshold: DefaultLargeThreshold,
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Site returns the site this store belongs to.
func (s *Store) Site() object.SiteID { return s.site }

// NewObject allocates a fresh object born at this site.
func (s *Store) NewObject() *object.Object {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	return object.New(object.ID{Birth: s.site, Seq: s.seq})
}

// Put stores (or replaces) an object. Large opaque data fields are spilled to
// the blob area and replaced in the search representation by empty stubs.
// The object is cloned, so the caller may keep mutating its copy.
func (s *Store) Put(o *object.Object) error {
	if o.ID.IsNil() {
		return fmt.Errorf("store: %w", errors.New("nil object id"))
	}
	c := o.Clone()
	s.mu.Lock()
	defer s.mu.Unlock()
	// Drop blobs from any previous version of this object.
	s.dropBlobsLocked(c.ID)
	for i := range c.Tuples {
		d := &c.Tuples[i].Data
		if s.largeThreshold > 0 && d.Kind == object.KindBytes && len(d.Bytes) > s.largeThreshold {
			s.blobs[blobKey{c.ID, i}] = d.Bytes
			*d = object.Value{Kind: object.KindBytes} // stub: zero-length, spilled
		}
	}
	s.objects[c.ID] = c
	return nil
}

// AllocIDs allocates n fresh ids born at this site under one lock
// acquisition. It is the bulk twin of NewObject, for generators that wire
// pointer graphs before storing anything.
func (s *Store) AllocIDs(n int) []object.ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := make([]object.ID, n)
	for i := range ids {
		s.seq++
		ids[i] = object.ID{Birth: s.site, Seq: s.seq}
	}
	return ids
}

// BulkLoad stores a batch of objects under one lock acquisition, taking
// ownership of the objects instead of cloning them — the caller must not
// touch them afterwards. Large data fields spill exactly as in Put. It is
// the scale-out loading path: a million-object scenario dataset loads in
// seconds where per-object Put (lock, clone, insert) takes minutes.
func (s *Store) BulkLoad(objs []*object.Object) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range objs {
		if o.ID.IsNil() {
			return fmt.Errorf("store: %w", errors.New("nil object id"))
		}
		s.dropBlobsLocked(o.ID)
		for i := range o.Tuples {
			d := &o.Tuples[i].Data
			if s.largeThreshold > 0 && d.Kind == object.KindBytes && len(d.Bytes) > s.largeThreshold {
				s.blobs[blobKey{o.ID, i}] = d.Bytes
				*d = object.Value{Kind: object.KindBytes} // stub: zero-length, spilled
			}
		}
		s.objects[o.ID] = o
	}
	return nil
}

// Insert allocates a fresh id at this site for the tuples of o, stores the
// object, and returns its id. It is a convenience combining NewObject + Put.
func (s *Store) Insert(tuples []object.Tuple) (object.ID, error) {
	o := s.NewObject()
	o.Tuples = tuples
	if err := s.Put(o); err != nil {
		return object.NilID, err
	}
	return o.ID, nil
}

// Get returns the searchable representation of an object (large data fields
// appear as empty stubs). The returned object is shared; callers must not
// mutate it.
func (s *Store) Get(id object.ID) (*object.Object, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	o, ok := s.objects[id]
	return o, ok
}

// FetchData returns the full data value of tuple index i of the object,
// reading spilled blobs from "disk" (and counting the read).
func (s *Store) FetchData(id object.ID, i int) (object.Value, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[id]
	if !ok {
		return object.Value{}, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	if i < 0 || i >= len(o.Tuples) {
		return object.Value{}, fmt.Errorf("store: tuple index %d out of range for %v", i, id)
	}
	if b, ok := s.blobs[blobKey{id, i}]; ok {
		s.diskReads++
		return object.Bytes(b), nil
	}
	return o.Tuples[i].Data, nil
}

// GetFull returns a copy of the object with all spilled data fields
// materialized from "disk" (each spilled field counts as a disk read). It is
// what a file-interface server must ship when the client asks for the whole
// object.
func (s *Store) GetFull(id object.ID) (*object.Object, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[id]
	if !ok {
		return nil, false
	}
	full := o.Clone()
	for i := range full.Tuples {
		if b, ok := s.blobs[blobKey{id, i}]; ok {
			full.Tuples[i].Data = object.Bytes(b)
			s.diskReads++
		}
	}
	return full, true
}

// Delete removes an object and its blobs, reporting whether it existed.
func (s *Store) Delete(id object.ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.objects[id]; !ok {
		return false
	}
	delete(s.objects, id)
	s.dropBlobsLocked(id)
	return true
}

func (s *Store) dropBlobsLocked(id object.ID) {
	for k := range s.blobs {
		if k.id == id {
			delete(s.blobs, k)
		}
	}
}

// Remove extracts an object with its full (unspilled) data for migration to
// another site, deleting it locally.
func (s *Store) Remove(id object.ID) (*object.Object, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.objects[id]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNotFound, id)
	}
	full := o.Clone()
	for i := range full.Tuples {
		if b, ok := s.blobs[blobKey{id, i}]; ok {
			full.Tuples[i].Data = object.Bytes(b)
		}
	}
	delete(s.objects, id)
	s.dropBlobsLocked(id)
	return full, nil
}

// PutForeign stores an object born elsewhere (a migrated object). Unlike
// Put it refuses ids born at this site that were never allocated here, to
// catch id-forging bugs early; locally-born ids are accepted if in range.
func (s *Store) PutForeign(o *object.Object) error {
	s.mu.Lock()
	inRange := o.ID.Birth != s.site || o.ID.Seq <= s.seq
	s.mu.Unlock()
	if !inRange {
		return fmt.Errorf("%w: %v (seq beyond allocation)", ErrWrongSite, o.ID)
	}
	return s.Put(o)
}

// Len returns the number of stored objects.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.objects)
}

// IDs returns all stored ids in sorted order.
func (s *Store) IDs() []object.ID {
	s.mu.RLock()
	set := make(object.IDSet, len(s.objects))
	for id := range s.objects {
		set.Add(id)
	}
	s.mu.RUnlock()
	return set.Sorted()
}

// DiskReads returns how many spilled blobs have been fetched.
func (s *Store) DiskReads() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.diskReads
}

// MakeSet materializes a set of objects as a HyperFile object: an object
// whose tuples are pointers to the members (paper section 2: "a set of
// objects is created using a basic object, with tuples containing pointers to
// the objects in the set"). It returns the new set object's id.
func (s *Store) MakeSet(key string, members []object.ID) (object.ID, error) {
	o := s.NewObject()
	for _, m := range members {
		o.Add("Pointer", object.String(key), object.Pointer(m))
	}
	if err := s.Put(o); err != nil {
		return object.NilID, err
	}
	return o.ID, nil
}

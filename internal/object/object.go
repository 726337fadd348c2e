package object

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Tuple is one self-describing record of an object: a type tag (which tells
// HyperFile how to interpret the remaining fields), a key (whose purpose is
// defined by the application), and a data field.
//
// Type tags are open-ended strings by design — applications define new tuple
// types by convention (the paper's example: an application may define
// "Object_Code" with the target machine as the key). HyperFile only relies on
// the Kind of the Key and Data values.
type Tuple struct {
	Type string
	Key  Value
	Data Value
}

// String renders the tuple in the paper's "(type, key, data)" notation.
func (t Tuple) String() string {
	return "(" + t.Type + ", " + t.Key.String() + ", " + t.Data.String() + ")"
}

// Clone returns a deep copy of the tuple.
func (t Tuple) Clone() Tuple {
	return Tuple{Type: t.Type, Key: t.Key.Clone(), Data: t.Data.Clone()}
}

// Object is a set of tuples with a globally unique id. Objects are the unit
// of storage, naming, and query processing in HyperFile.
type Object struct {
	ID     ID
	Tuples []Tuple
}

// New returns an empty object with the given id.
func New(id ID) *Object { return &Object{ID: id} }

// Add appends a tuple and returns the object, enabling fluent construction:
//
//	obj := object.New(id).
//		Add("String", object.String("Title"), object.String("...")).
//		Add("Pointer", object.String("Reference"), object.Pointer(other))
func (o *Object) Add(typ string, key, data Value) *Object {
	o.Tuples = append(o.Tuples, Tuple{Type: typ, Key: key, Data: data})
	return o
}

// Find returns all tuples with the given type tag.
func (o *Object) Find(typ string) []Tuple {
	var out []Tuple
	for _, t := range o.Tuples {
		if t.Type == typ {
			out = append(out, t)
		}
	}
	return out
}

// FindKey returns all tuples with the given type tag whose key equals key.
func (o *Object) FindKey(typ string, key Value) []Tuple {
	var out []Tuple
	for _, t := range o.Tuples {
		if t.Type == typ && t.Key.Equal(key) {
			out = append(out, t)
		}
	}
	return out
}

// Pointers returns the ids referenced by pointer tuples of the given type tag
// whose key text equals key; with key == "" every pointer tuple of that type
// matches. It is a convenience for applications building link structures.
func (o *Object) Pointers(typ, key string) []ID {
	var out []ID
	for _, t := range o.Tuples {
		if t.Type != typ || t.Data.Kind != KindPointer {
			continue
		}
		if key != "" && t.Key.Text() != key {
			continue
		}
		out = append(out, t.Data.Ptr)
	}
	return out
}

// AllPointers returns every object id referenced by any pointer-valued field
// (key or data) of any tuple. It is used by reachability indexing.
func (o *Object) AllPointers() []ID {
	var out []ID
	for _, t := range o.Tuples {
		if t.Key.Kind == KindPointer {
			out = append(out, t.Key.Ptr)
		}
		if t.Data.Kind == KindPointer {
			out = append(out, t.Data.Ptr)
		}
	}
	return out
}

// Clone returns a deep copy of the object.
func (o *Object) Clone() *Object {
	c := &Object{ID: o.ID, Tuples: make([]Tuple, len(o.Tuples))}
	for i, t := range o.Tuples {
		c.Tuples[i] = t.Clone()
	}
	return c
}

// Size returns an approximation of the object's storage footprint in bytes.
// It is used by the file-server baseline to model the cost of shipping whole
// objects instead of queries.
func (o *Object) Size() int {
	n := 16 // id
	for _, t := range o.Tuples {
		n += len(t.Type) + valueSize(t.Key) + valueSize(t.Data)
	}
	return n
}

func valueSize(v Value) int {
	switch v.Kind {
	case KindString, KindKeyword:
		return 4 + len(v.Str)
	case KindInt, KindFloat:
		return 8
	case KindPointer:
		return 12
	case KindBytes:
		return 4 + len(v.Bytes)
	default:
		return 1
	}
}

// String renders the object with its tuples sorted lexically, for stable
// golden-output tests.
func (o *Object) String() string {
	lines := make([]string, len(o.Tuples))
	for i, t := range o.Tuples {
		lines[i] = "  " + t.String()
	}
	sort.Strings(lines)
	return fmt.Sprintf("%s {\n%s\n}", o.ID, strings.Join(lines, "\n"))
}

// IDSet is a set of object ids with deterministic iteration helpers. It is
// the representation of query result sets.
type IDSet map[ID]struct{}

// NewIDSet builds a set from the listed ids.
func NewIDSet(ids ...ID) IDSet {
	s := make(IDSet, len(ids))
	for _, id := range ids {
		s[id] = struct{}{}
	}
	return s
}

// Add inserts id into the set.
func (s IDSet) Add(id ID) { s[id] = struct{}{} }

// Has reports membership.
func (s IDSet) Has(id ID) bool {
	_, ok := s[id]
	return ok
}

// AddAll inserts every id of other into s.
func (s IDSet) AddAll(other IDSet) {
	for id := range other {
		s[id] = struct{}{}
	}
}

// Sorted returns the ids in total order (see ID.Less).
func (s IDSet) Sorted() []ID {
	out := make([]ID, 0, len(s))
	for id := range s {
		out = append(out, id)
	}
	slices.SortFunc(out, ID.Compare)
	return out
}

// Equal reports whether two sets hold the same ids.
func (s IDSet) Equal(other IDSet) bool {
	if len(s) != len(other) {
		return false
	}
	for id := range s {
		if !other.Has(id) {
			return false
		}
	}
	return true
}

// String renders the set as "{id, id, ...}" in sorted order.
func (s IDSet) String() string {
	ids := s.Sorted()
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = id.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

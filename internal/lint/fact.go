package lint

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// A Fact is a typed, JSON-serializable datum an analyzer attaches to a
// package-level object (a function, method, type or variable) during its
// pass over the defining package, and that analyzers of dependent
// packages import during theirs. Facts are the modular-analysis currency
// of the go/analysis design: each package is analyzed once, against the
// facts of its dependencies, so interprocedural properties (an arena
// parameter that escapes, a context that detaches, a lock acquired under
// another) cross package boundaries without whole-program analysis.
//
// A fact type must be a pointer to a JSON-marshalable struct and must be
// declared in the exporting analyzer's FactTypes. The dynamic type name
// is part of the wire key, so a renamed fact type does not decode facts
// written under the old name — which is correct, since the consumer
// decodes by shape.
type Fact interface {
	// AFact is a marker method: it guards against accidentally passing
	// arbitrary values where a registered fact type is expected.
	AFact()
}

// An ObjectFact pairs a decoded fact with the object it is attached to,
// identified portably as (package path, object path).
type ObjectFact struct {
	Pkg  string // canonical package path of the defining package
	Obj  string // object path within the package (see objPath)
	Fact Fact
}

// wireFact is the serialized form of one exported fact — the element
// type of a vetx file.
type wireFact struct {
	Pkg      string          `json:"pkg"`
	Obj      string          `json:"obj"`
	Analyzer string          `json:"analyzer"`
	Type     string          `json:"type"`
	Data     json.RawMessage `json:"data"`
}

// factKey identifies one fact slot in a store.
type factKey struct {
	pkg, obj, analyzer, typ string
}

// A FactStore holds the facts visible to a pass: those imported from
// dependency packages plus those exported by the packages analyzed so
// far.
type FactStore struct {
	m map[factKey]json.RawMessage
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{m: make(map[factKey]json.RawMessage)}
}

// factTypeName names a fact's dynamic type for the wire key.
func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

// objPath returns a portable path for a package-level object: the bare
// name for functions, types and variables, and "Recv.Name" for methods
// (pointer receivers are stripped). The empty string marks an object
// facts cannot attach to (locals, fields, universe objects).
func objPath(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok {
				return ""
			}
			return named.Obj().Name() + "." + fn.Name()
		}
		return fn.Name()
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return "" // not package-level
	}
	return obj.Name()
}

// AddWire loads serialized facts (a vetx file) into the store.
func (s *FactStore) AddWire(facts []wireFact) {
	for _, f := range facts {
		s.m[factKey{f.Pkg, f.Obj, f.Analyzer, f.Type}] = f.Data
	}
}

// DecodeWire parses the JSON encoding produced by EncodeWire (or an
// empty/absent file, which decodes to no facts).
func DecodeWire(data []byte) ([]wireFact, error) {
	if len(data) == 0 {
		return nil, nil
	}
	var facts []wireFact
	if err := json.Unmarshal(data, &facts); err != nil {
		return nil, fmt.Errorf("lint: decoding facts: %w", err)
	}
	return facts, nil
}

// Wire returns every fact in the store in a deterministic order, for
// serialization into a vetx file. When filter is non-nil only facts of
// the listed packages are included.
func (s *FactStore) Wire(filter map[string]bool) []wireFact {
	facts := make([]wireFact, 0, len(s.m))
	for key, data := range s.m {
		if filter != nil && !filter[key.pkg] {
			continue
		}
		facts = append(facts, wireFact{key.pkg, key.obj, key.analyzer, key.typ, data})
	}
	sort.Slice(facts, func(i, j int) bool {
		a, b := facts[i], facts[j]
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Obj != b.Obj {
			return a.Obj < b.Obj
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Type < b.Type
	})
	return facts
}

// EncodeWire serializes facts for a vetx file: a sorted JSON array, or
// no bytes at all when there are no facts (cmd/go treats an empty vetx
// file as valid, and most packages export nothing).
func EncodeWire(facts []wireFact) []byte {
	if len(facts) == 0 {
		return nil
	}
	data, err := json.Marshal(facts)
	if err != nil {
		// Fact types are plain structs; a marshal failure is a
		// programming error in the exporting analyzer.
		panic(fmt.Sprintf("lint: encoding facts: %v", err))
	}
	return data
}

// FactsJSON returns the indented wire encoding of one package's facts —
// the golden-file form the analyzer test suites pin.
func FactsJSON(s *FactStore, pkgPath string) []byte {
	facts := s.Wire(map[string]bool{pkgPath: true})
	if len(facts) == 0 {
		return []byte("[]\n")
	}
	data, err := json.MarshalIndent(facts, "", "  ")
	if err != nil {
		panic(fmt.Sprintf("lint: encoding facts: %v", err))
	}
	return append(data, '\n')
}

// ExportObjectFact attaches fact to obj, a package-level object of the
// package under analysis (or of a dependency: re-exporting an imported
// fact is a no-op overwrite with identical data). The analyzer must have
// declared the fact's type in FactTypes.
func (p *Pass) ExportObjectFact(obj types.Object, fact Fact) {
	if p.store == nil {
		return
	}
	if !p.declaresFactType(fact) {
		panic(fmt.Sprintf("lint: analyzer %s exports undeclared fact type %T", p.Analyzer.Name, fact))
	}
	path := objPath(obj)
	if path == "" {
		panic(fmt.Sprintf("lint: analyzer %s exports a fact on a non-package-level object %v", p.Analyzer.Name, obj))
	}
	data, err := json.Marshal(fact)
	if err != nil {
		panic(fmt.Sprintf("lint: analyzer %s: marshaling %T: %v", p.Analyzer.Name, fact, err))
	}
	p.store.m[factKey{CanonicalPath(obj.Pkg().Path()), path, p.Analyzer.Name, factTypeName(fact)}] = data
}

// ImportObjectFact decodes into fact the fact of fact's type previously
// exported for obj by this same analyzer (in this package or any
// dependency), reporting whether one exists.
func (p *Pass) ImportObjectFact(obj types.Object, fact Fact) bool {
	if p.store == nil || obj == nil || obj.Pkg() == nil {
		return false
	}
	path := objPath(obj)
	if path == "" {
		return false
	}
	data, ok := p.store.m[factKey{CanonicalPath(obj.Pkg().Path()), path, p.Analyzer.Name, factTypeName(fact)}]
	if !ok {
		return false
	}
	if err := json.Unmarshal(data, fact); err != nil {
		panic(fmt.Sprintf("lint: analyzer %s: unmarshaling %T: %v", p.Analyzer.Name, fact, err))
	}
	return true
}

// AllObjectFacts returns every fact of template's type exported
// by this analyzer, across the package under analysis and its dependency
// closure, in deterministic (package, object) order. template is only a
// type witness; each returned ObjectFact carries a freshly decoded
// value.
func (p *Pass) AllObjectFacts(template Fact) []ObjectFact {
	if p.store == nil {
		return nil
	}
	typ := factTypeName(template)
	rt := reflect.TypeOf(template)
	if rt.Kind() != reflect.Pointer {
		panic(fmt.Sprintf("lint: fact template %T is not a pointer", template))
	}
	var keys []factKey
	for key := range p.store.m {
		if key.analyzer == p.Analyzer.Name && key.typ == typ {
			keys = append(keys, key)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].pkg != keys[j].pkg {
			return keys[i].pkg < keys[j].pkg
		}
		return keys[i].obj < keys[j].obj
	})
	out := make([]ObjectFact, 0, len(keys))
	for _, key := range keys {
		data := p.store.m[key]
		fact := reflect.New(rt.Elem()).Interface().(Fact)
		if err := json.Unmarshal(data, fact); err != nil {
			panic(fmt.Sprintf("lint: analyzer %s: unmarshaling %T: %v", p.Analyzer.Name, fact, err))
		}
		out = append(out, ObjectFact{Pkg: key.pkg, Obj: key.obj, Fact: fact})
	}
	return out
}

// declaresFactType reports whether the running analyzer declared fact's
// type in FactTypes.
func (p *Pass) declaresFactType(fact Fact) bool {
	name := factTypeName(fact)
	for _, t := range p.Analyzer.FactTypes {
		if factTypeName(t) == name {
			return true
		}
	}
	return false
}

package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// libraryFiles loads every checked-in scenario under scenarios/.
func libraryFiles(t testing.TB) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "scenarios", "*.yaml"))
	if err != nil || len(paths) < 6 {
		t.Fatalf("want at least 6 checked-in scenarios, got %v (%v)", paths, err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = data
	}
	return out
}

// TestMarshalFixedPoint: canonical serialization is a fixed point —
// parse(marshal(parse(file))) marshals to the same bytes, and both
// parses compile to the same chaos scenario. This is what makes
// serialized reproducers and replay diffs byte-comparable.
func TestMarshalFixedPoint(t *testing.T) {
	for name, data := range libraryFiles(t) {
		f1, err := Parse(name, data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b1 := f1.Marshal()
		f2, err := Parse(name+"#remarshal", b1)
		if err != nil {
			t.Fatalf("%s: reparse of canonical form: %v\n%s", name, err, b1)
		}
		b2 := f2.Marshal()
		if string(b1) != string(b2) {
			t.Fatalf("%s: marshal not a fixed point:\n--- first:\n%s--- second:\n%s",
				name, b1, b2)
		}
		if !reflect.DeepEqual(f1.Scenario(), f2.Scenario()) {
			t.Fatalf("%s: original and remarshaled files compile differently", name)
		}
	}
}

// TestFromScenarioRoundTrip: lifting a compiled scenario back to file
// form and recompiling reproduces the identical chaos scenario —
// plan entries, seeds and all — so shrunk reproducers behave exactly
// like the in-memory scenario they were shrunk from.
func TestFromScenarioRoundTrip(t *testing.T) {
	for name, data := range libraryFiles(t) {
		f, err := Parse(name, data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		s1 := f.Scenario()
		lifted := FromScenario(s1, f.Name, f.Description, f.Assertions)
		reparsed, err := Parse(name+"#lifted", lifted.Marshal())
		if err != nil {
			t.Fatalf("%s: lifted file does not parse: %v\n%s", name, err, lifted.Marshal())
		}
		if s2 := reparsed.Scenario(); !reflect.DeepEqual(s1, s2) {
			t.Fatalf("%s: compile(lift(compile)) != compile:\n%+v\nvs\n%+v", name, s1, s2)
		}
	}
}

// TestCompileDeterminism: compiling the same bytes twice yields
// deeply equal scenarios (no hidden map iteration or shared state).
func TestCompileDeterminism(t *testing.T) {
	for name, data := range libraryFiles(t) {
		f1, err1 := Parse(name, data)
		f2, err2 := Parse(name, data)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: %v / %v", name, err1, err2)
		}
		if !reflect.DeepEqual(f1, f2) {
			t.Fatalf("%s: two parses of the same bytes differ", name)
		}
		if !reflect.DeepEqual(f1.Scenario(), f2.Scenario()) {
			t.Fatalf("%s: two compiles of the same file differ", name)
		}
	}
}

// FuzzParseMarshal: every input that parses marshals to a canonical
// form that parses again, re-marshals to the same bytes, and yields a
// deeply equal scenario and assertion list. Seeds are the library, the
// malformed fixtures of `hps chaos validate`, and every document of the
// parse and semantic error tables.
func FuzzParseMarshal(f *testing.F) {
	for _, data := range libraryFiles(f) {
		f.Add(data)
	}
	malformed, err := filepath.Glob(filepath.Join("..", "..", "cmd", "hps", "testdata", "malformed", "*.yaml"))
	if err != nil || len(malformed) < 3 {
		f.Fatalf("want at least 3 malformed fixtures, got %v (%v)", malformed, err)
	}
	for _, p := range malformed {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, tc := range semanticCases {
		f.Add([]byte(tc.doc))
	}
	f.Add([]byte(happyYAML))
	f.Add([]byte(failingDoc))
	// Durations past sim.Time's range must be rejected, not wrapped to
	// negative times that Marshal writes and Parse refuses.
	for _, gap := range []string{"1e30s", "9223372037s", "Infms", "NaNs"} {
		f.Add([]byte(minimalWith("", "  gap: "+gap+"\n")))
	}
	f.Add([]byte(minimalWith("", "assertions:\n  - end_at_most: 1e300s\n")))
	f.Fuzz(func(t *testing.T, data []byte) {
		f1, err := Parse("fuzz", data)
		if err != nil {
			return
		}
		b1 := f1.Marshal()
		f2, err := Parse("fuzz#marshal", b1)
		if err != nil {
			t.Fatalf("canonical form does not parse: %v\n%s", err, b1)
		}
		if b2 := f2.Marshal(); !bytes.Equal(b1, b2) {
			t.Fatalf("marshal not a fixed point:\n--- first:\n%s--- second:\n%s", b1, b2)
		}
		if s1, s2 := f1.Scenario(), f2.Scenario(); !reflect.DeepEqual(s1, s2) {
			t.Fatalf("scenarios differ:\n%+v\nvs\n%+v\ncanonical form:\n%s", s1, s2, b1)
		}
		if !reflect.DeepEqual(f1.Assertions, f2.Assertions) {
			t.Fatalf("assertions differ: %+v vs %+v", f1.Assertions, f2.Assertions)
		}
	})
}

package trace

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
)

// Two distinct Go types that normalise to one name ("twin") but differ in
// size: they must share a MsgType while each keeps its own size.
type (
	msgTwin struct{ A int64 }
	cmTwin  struct{ A, B int64 }
)

// namerCorpus returns one value of each of 40 distinct payload types: 38
// byte arrays of lengths 1..38 (each its own name) and the two twins.
func namerCorpus() []any {
	vals := make([]any, 0, 40)
	for n := 1; n <= 38; n++ {
		vals = append(vals, reflect.New(reflect.ArrayOf(n, reflect.TypeOf(byte(0)))).Elem().Interface())
	}
	return append(vals, msgTwin{}, cmTwin{})
}

// namerOracle is the reference classification: a map from type to
// description, IDs minted per normalised name in first-seen order.
type namerOracle struct {
	byType map[reflect.Type]typeInfo
	byName map[string]MsgType
}

func (o *namerOracle) info(msg any) typeInfo {
	t := reflect.TypeOf(msg)
	if info, ok := o.byType[t]; ok {
		return info
	}
	name := NormalizeTypeName(fmt.Sprintf("%T", msg))
	id, ok := o.byName[name]
	if !ok {
		id = MsgType(len(o.byName) + 1)
		o.byName[name] = id
	}
	info := typeInfo{name: name, size: int(t.Size()), id: id}
	o.byType[t] = info
	return info
}

// TestTypeNamerMatchesMapOracle drives the slice-scanning cache and a
// map oracle through the same random lookup sequence over 40 types, twins
// included, and requires identical answers at every step.
func TestTypeNamerMatchesMapOracle(t *testing.T) {
	vals := namerCorpus()
	for seed := uint64(1); seed <= 5; seed++ {
		tn := NewTypeNamer()
		o := &namerOracle{byType: map[reflect.Type]typeInfo{}, byName: map[string]MsgType{}}
		rng := rand.New(rand.NewPCG(seed, 0))
		for step := 0; step < 2_000; step++ {
			v := vals[rng.IntN(len(vals))]
			want := o.info(v)
			name, size, id := tn.Info(v)
			if got := (typeInfo{name, size, id}); got != want {
				t.Fatalf("seed %d step %d: Info(%T) = %+v, oracle %+v", seed, step, v, got, want)
			}
			if got := tn.TypeName(id); got != want.name {
				t.Fatalf("seed %d: TypeName(%d) = %q, want %q", seed, id, got, want.name)
			}
		}
		if got, want := tn.NumTypes(), len(o.byName); got != want {
			t.Fatalf("seed %d: NumTypes = %d, oracle minted %d", seed, got, want)
		}
	}
	tn := NewTypeNamer()
	n1, s1, id1 := tn.Info(msgTwin{})
	n2, s2, id2 := tn.Info(cmTwin{})
	if n1 != "twin" || n2 != "twin" || id1 != id2 || s1 != 8 || s2 != 16 {
		t.Fatalf("twins: %q/%d/%d and %q/%d/%d, want one name and ID, sizes 8 and 16", n1, s1, id1, n2, s2, id2)
	}
}

// TestTypeNamerConcurrentMisses: many goroutines meet the same unseen
// types at once (the tile workers of a parallel window do). Every one must
// read the same description of every type, and the IDs must come out
// dense, one per name. Run it under -race.
func TestTypeNamerConcurrentMisses(t *testing.T) {
	vals := namerCorpus()
	tn := NewTypeNamer()
	const goroutines = 16
	seen := make([][]typeInfo, goroutines)
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for g := range goroutines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			order := rand.New(rand.NewPCG(uint64(g), 1)).Perm(len(vals))
			got := make([]typeInfo, len(vals))
			<-gate
			for _, i := range order {
				name, size, id := tn.Info(vals[i])
				got[i] = typeInfo{name, size, id}
			}
			seen[g] = got
		}()
	}
	close(gate)
	wg.Wait()
	ids := map[MsgType]string{}
	for i := range vals {
		want := seen[0][i]
		for g := 1; g < goroutines; g++ {
			if seen[g][i] != want {
				t.Fatalf("goroutine %d read %+v for %T, goroutine 0 %+v", g, seen[g][i], vals[i], want)
			}
		}
		if want.size != int(reflect.TypeOf(vals[i]).Size()) {
			t.Fatalf("%T: size %d", vals[i], want.size)
		}
		if name, ok := ids[want.id]; ok && name != want.name {
			t.Fatalf("ID %d names both %q and %q", want.id, name, want.name)
		}
		ids[want.id] = want.name
	}
	if len(ids) != len(vals)-1 || tn.NumTypes() != len(vals)-1 {
		t.Fatalf("%d IDs minted (NumTypes %d), want %d: one per name", len(ids), tn.NumTypes(), len(vals)-1)
	}
	for id := MsgType(1); int(id) <= len(ids); id++ {
		if tn.TypeName(id) != ids[id] {
			t.Fatalf("TypeName(%d) = %q, want %q", id, tn.TypeName(id), ids[id])
		}
	}
}

package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"besteffs/internal/importance"
	"besteffs/internal/object"
)

// randomFunction draws a valid importance function of any codec family.
func randomFunction(rng *rand.Rand, depth int) importance.Function {
	day := importance.Day
	level := func() float64 { return float64(1+rng.Intn(1000)) / 1000 }
	age := func() time.Duration { return time.Duration(1+rng.Intn(1000)) * day }
	families := 6
	if depth < 2 {
		families = 8
	}
	switch rng.Intn(families) {
	case 0:
		return importance.TwoStep{Plateau: level(), Persist: age(), Wane: age()}
	case 1:
		return importance.Constant{Level: level()}
	case 2:
		return importance.Dirac{}
	case 3:
		return importance.Linear{Start: level(), Expire: age()}
	case 4:
		return importance.Exponential{Start: level(), HalfLife: age(), Expire: age()}
	case 5:
		v := level()
		return mustFunc(importance.NewPiecewise([]importance.Point{
			{Age: 0, Value: v}, {Age: age(), Value: v / 2},
		}))
	case 6:
		return mustFunc(importance.NewMin(randomFunction(rng, depth+1), randomFunction(rng, depth+1)))
	default:
		return mustFunc(importance.NewProduct(randomFunction(rng, depth+1), randomFunction(rng, depth+1)))
	}
}

// randomMessage builds the message an opcode's table row names and fills it.
func randomMessage(t *testing.T, rng *rand.Rand, op Op) Message {
	m := opTable[op].new()
	fillRandom(t, rng, reflect.ValueOf(m).Elem())
	return m
}

var (
	functionType = reflect.TypeOf((*importance.Function)(nil)).Elem()
	messageType  = reflect.TypeOf((*Message)(nil)).Elem()
	classType    = reflect.TypeOf(object.Class(0))
	timeType     = reflect.TypeOf(time.Time{})
)

// fillRandom sets every exported field under v to a non-zero value the wire
// can carry, so a field the message's fields method forgets comes back zero
// and differs. (An unexported field is a decoder's own, such as the encoding
// a Decoder keeps for a Put, and Decode leaves it zero.)
func fillRandom(t *testing.T, rng *rand.Rand, v reflect.Value) {
	switch {
	case v.Type() == functionType:
		v.Set(reflect.ValueOf(randomFunction(rng, 0)))
		return
	case v.Type() == messageType:
		// Only batches hold messages, and their subs never nest.
		op := Op(0)
		for opTable[op].new == nil || isBatch(op) {
			op = Op(rng.Intn(len(opTable)))
		}
		v.Set(reflect.ValueOf(randomMessage(t, rng, op)))
		return
	case v.Type() == classType:
		v.SetUint(uint64(1 + rng.Intn(255))) // one byte on the wire
		return
	case v.Type() == timeType:
		v.Set(reflect.ValueOf(time.Unix(0, 1+rng.Int63()>>1))) // Unix nanoseconds on the wire
		return
	}
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				fillRandom(t, rng, v.Field(i))
			}
		}
	case reflect.Slice:
		n := 2 + rng.Intn(3)
		v.Set(reflect.MakeSlice(v.Type(), n, n))
		for i := 0; i < n; i++ {
			fillRandom(t, rng, v.Index(i))
		}
	case reflect.String:
		b := make([]byte, 1+rng.Intn(12))
		rng.Read(b)
		v.SetString(string(b))
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(1 + uint64(rng.Int63())%(1<<(8*v.Type().Size()-1)))
	case reflect.Int64:
		v.SetInt(1 + rng.Int63()>>1)
	case reflect.Float64:
		v.SetFloat(rng.NormFloat64() + 10)
	default:
		t.Fatalf("fillRandom: no rule for %v; teach it the new field kind", v.Type())
	}
}

// TestEveryFieldRoundTrips is what two hand-written copies of each field
// list used to be checked against each other for: a struct field that the
// message's fields method does not name decodes as zero and fails here.
func TestEveryFieldRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := range opTable {
		if opTable[i].new == nil {
			continue
		}
		op := Op(i)
		t.Run(op.String(), func(t *testing.T) {
			if got := opTable[i].new().Op(); got != op {
				t.Fatalf("table row %v builds a %v", op, got)
			}
			for round := 0; round < 20; round++ {
				m := randomMessage(t, rng, op)
				body, err := Encode(m)
				if err != nil {
					t.Fatalf("Encode(%#v): %v", m, err)
				}
				got, err := Decode(body)
				if err != nil {
					t.Fatalf("Decode: %v", err)
				}
				if !reflect.DeepEqual(got, m) {
					t.Fatalf("round trip lost a field:\n got %#v\nwant %#v", got, m)
				}
			}
		})
	}
}

// requireReencodes checks that a decoded message encodes back to the bytes
// it was decoded from: the body is a prefix of the input (what follows is
// trailers or junk), except that a boolean decoded from a non-zero byte other
// than 1 is written back as 1.
func requireReencodes(t *testing.T, input []byte, m Message) {
	t.Helper()
	body, err := Encode(m)
	if err != nil {
		t.Fatalf("decoded message cannot re-encode: %v", err)
	}
	if len(body) > len(input) {
		t.Fatalf("re-encoding is %d bytes, longer than the %d decoded", len(body), len(input))
	}
	for i := range body {
		if body[i] != input[i] && !(body[i] == 1 && input[i] > 1) {
			t.Fatalf("re-encoding differs at byte %d: got %#x, decoded from %#x\n got %x\nfrom %x",
				i, body[i], input[i], body, input[:len(body)])
		}
	}
}

// padImportance returns body with one junk byte appended inside the
// length-prefixed importance field that holds f's encoding.
func padImportance(t *testing.T, body []byte, f importance.Function) []byte {
	t.Helper()
	enc, err := importance.Encode(f)
	if err != nil {
		t.Fatal(err)
	}
	prefixed := append(binary.BigEndian.AppendUint16(nil, uint16(len(enc))), enc...)
	at := bytes.Index(body, prefixed)
	if at < 0 {
		t.Fatalf("importance field not found in %x", body)
	}
	out := append([]byte(nil), body[:at]...)
	out = binary.BigEndian.AppendUint16(out, uint16(len(enc)+1))
	out = append(out, enc...)
	out = append(out, 0)
	return append(out, body[at+len(prefixed):]...)
}

// TestImportanceFieldIsExact: every opcode that carries an importance
// function rejects trailing bytes inside the length-prefixed field. PROBE and
// OBJECT used to accept them.
func TestImportanceFieldIsExact(t *testing.T) {
	f := importance.TwoStep{Plateau: 0.5, Persist: importance.Day, Wane: importance.Day}
	const want = "importance encoding has 1 trailing bytes"
	for _, m := range []Message{
		&Put{ID: "x", Importance: f, Payload: []byte("p")},
		&Update{ID: "x", Importance: f, Payload: []byte("p")},
		&Rejuvenate{ID: "x", Importance: f},
		&Replicate{ID: "x", Importance: f, Payload: []byte("p")},
		&Probe{Size: 9, Importance: f},
		&ObjectMsg{ID: "x", Importance: f, Payload: []byte("p")},
	} {
		_, err := Decode(padImportance(t, mustEncode(t, m), f))
		if err == nil || !strings.HasSuffix(err.Error(), want) {
			t.Errorf("%v with a padded importance field: err = %v, want ... %s", m.Op(), err, want)
		}
	}
}

// TestListCountOverflowFailsToEncode: a list longer than its count field can
// express is an encode error, not a silently wrapped count.
func TestListCountOverflowFailsToEncode(t *testing.T) {
	if _, err := Encode(&PutResult{Admitted: true, Evicted: make([]object.ID, 1<<16)}); err == nil {
		t.Error("PutResult with 65536 evicted IDs encoded")
	}
	if _, err := Encode(&PutResult{Admitted: true, Evicted: make([]object.ID, 1<<16-1)}); err != nil {
		t.Errorf("PutResult with 65535 evicted IDs: %v", err)
	}
	for _, m := range []Message{
		&Gossip{Members: make([]MemberInfo, 1<<16)},
		&GossipResult{Members: make([]MemberInfo, 1<<16)},
		&MembersResult{Members: make([]MemberInfo, 1<<16)},
		&StatResult{Shards: make([]ShardStat, 1<<16)},
	} {
		if _, err := Encode(m); err == nil {
			t.Errorf("%v with 65536 list elements encoded", m.Op())
		}
	}
}

// TestHostileListCountAllocatesNothing: a claimed count the body cannot hold
// fails with ErrShort before the list is allocated.
func TestHostileListCountAllocatesNothing(t *testing.T) {
	stat := mustEncode(t, &StatResult{Capacity: 1, Used: 1, Objects: 1, Density: 1})
	binary.BigEndian.PutUint16(stat[len(stat)-2:], 0xFFFF) // 65 535 shards, no bytes for them
	list := []byte{uint8(OpListResult), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0}
	spans := append(mustEncode(t, &TraceDumpResult{Node: "n"})[:4], 0x00, 0x10, 0x00, 0x00)
	for _, body := range [][]byte{stat, list, spans} {
		if _, err := Decode(body); !errors.Is(err, ErrShort) {
			t.Errorf("%v claiming more elements than it holds: err = %v, want ErrShort", Op(body[0]), err)
		}
		const runs = 100
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := Decode(body); err == nil {
				t.Fatal("hostile count decoded")
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
			t.Errorf("%v: refusing the count allocated %d bytes per decode, want < 1 KiB", Op(body[0]), per)
		}
	}
}

package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"rofl/internal/ident"
)

func samplePacket() *Packet {
	return &Packet{
		Type:       TypeData,
		Flags:      flagPeered,
		TTL:        200,
		Dst:        ident.FromString("dst"),
		Src:        ident.FromString("src"),
		ReqID:      0xdeadbeefcafe,
		ASRoute:    []uint32{7018, 1239, 3356},
		Capability: []byte{1, 2, 3},
		Payload:    []byte("hello flat world"),
	}
}

func TestRoundTrip(t *testing.T) {
	p := samplePacket()
	buf, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != p.EncodedLen() {
		t.Fatalf("len = %d want %d", len(buf), p.EncodedLen())
	}
	var q Packet
	if err := q.DecodeFromBytes(buf); err != nil {
		t.Fatal(err)
	}
	if q.Type != p.Type || q.Flags != p.Flags || q.TTL != p.TTL || q.Dst != p.Dst || q.Src != p.Src || q.ReqID != p.ReqID {
		t.Fatalf("header mismatch: %+v vs %+v", q, p)
	}
	if len(q.ASRoute) != 3 || q.ASRoute[2] != 3356 {
		t.Fatalf("route = %v", q.ASRoute)
	}
	if !bytes.Equal(q.Capability, p.Capability) || !bytes.Equal(q.Payload, p.Payload) {
		t.Fatal("variable sections mismatch")
	}
}

// TestRoundTripEveryField sets each field of Packet alone to a non-zero
// value and requires the encoding to change and the decode to give the
// packet back. A field the encoder forgets leaves the bytes equal to the
// base packet's; one the decoder forgets comes back zero. The field list
// is read by reflection, and a kind the test cannot fill fails it, so a
// new field cannot join Packet without joining this test.
func TestRoundTripEveryField(t *testing.T) {
	base := Packet{Type: TypeData} // the zero Type does not encode
	baseBytes := mustMarshal(t, &base)
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		p := base
		v := reflect.ValueOf(&p).Elem().Field(i)
		switch {
		case f.Type == reflect.TypeOf(Type(0)):
			v.Set(reflect.ValueOf(TypeAck))
		case f.Type == reflect.TypeOf(ident.ID{}):
			v.Set(reflect.ValueOf(ident.FromString(f.Name)))
		case f.Type.Kind() == reflect.Uint8 || f.Type.Kind() == reflect.Uint64:
			v.SetUint(uint64(0xa0 + i))
		case f.Type == reflect.TypeOf([]uint32(nil)):
			v.Set(reflect.ValueOf([]uint32{uint32(7000 + i), 1239}))
		case f.Type == reflect.TypeOf([]byte(nil)):
			v.SetBytes([]byte(f.Name))
		default:
			t.Fatalf("field %s has type %s, which this test cannot fill; teach it a non-zero value", f.Name, f.Type)
		}
		got := mustMarshal(t, &p)
		if bytes.Equal(got, baseBytes) {
			t.Errorf("field %s: the encoding ignores it", f.Name)
		}
		var q Packet
		if err := q.DecodeFromBytes(got); err != nil {
			t.Fatalf("field %s: %v", f.Name, err)
		}
		if !reflect.DeepEqual(q, p) {
			t.Errorf("field %s: decoded %+v, want %+v", f.Name, q, p)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(flags, ttl uint8, reqID uint64, route []uint32, capab, payload []byte) bool {
		if len(route) > maxASRoute {
			route = route[:maxASRoute]
		}
		if len(capab) > maxCapability {
			capab = capab[:maxCapability]
		}
		if len(payload) > 1000 {
			payload = payload[:1000]
		}
		p := &Packet{
			Type: TypeJoinRequest, Flags: flags, TTL: ttl, ReqID: reqID,
			Dst: ident.Random(rng), Src: ident.Random(rng),
			ASRoute: route, Capability: capab, Payload: payload,
		}
		buf, err := p.Marshal()
		if err != nil {
			return false
		}
		var q Packet
		if err := q.DecodeFromBytes(buf); err != nil {
			return false
		}
		if q.Dst != p.Dst || q.Src != p.Src || q.Flags != flags || q.TTL != ttl || q.ReqID != reqID {
			return false
		}
		if len(q.ASRoute) != len(route) {
			return false
		}
		for i := range route {
			if q.ASRoute[i] != route[i] {
				return false
			}
		}
		return bytes.Equal(q.Capability, capab) && bytes.Equal(q.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeErrors(t *testing.T) {
	p := samplePacket()
	buf, _ := p.Marshal()

	var q Packet
	if err := q.DecodeFromBytes(buf[:3]); !errors.Is(err, errTruncated) {
		t.Fatalf("short header: %v", err)
	}
	if err := q.DecodeFromBytes(buf[:len(buf)-1]); !errors.Is(err, errTruncated) {
		t.Fatalf("short body: %v", err)
	}

	bad := append([]byte(nil), buf...)
	bad[0] = 99
	if err := q.DecodeFromBytes(bad); !errors.Is(err, errBadVersion) {
		t.Fatalf("bad version: %v", err)
	}

	bad = append([]byte(nil), buf...)
	bad[1] = 0
	if err := q.DecodeFromBytes(bad); !errors.Is(err, errBadType) {
		t.Fatalf("bad type 0: %v", err)
	}
	bad[1] = byte(typeMax)
	if err := q.DecodeFromBytes(bad); !errors.Is(err, errBadType) {
		t.Fatalf("bad type max: %v", err)
	}
}

func TestDecodeNeverPanicsOnGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var p Packet
	for i := 0; i < 5000; i++ {
		n := rng.Intn(200)
		buf := make([]byte, n)
		rng.Read(buf)
		_ = p.DecodeFromBytes(buf) // must not panic
	}
}

func TestMarshalValidation(t *testing.T) {
	p := samplePacket()
	p.Type = 0
	if _, err := p.Marshal(); !errors.Is(err, errBadType) {
		t.Fatalf("zero type: %v", err)
	}
	p = samplePacket()
	p.ASRoute = make([]uint32, maxASRoute+1)
	if _, err := p.Marshal(); !errors.Is(err, errTooLong) {
		t.Fatalf("long route: %v", err)
	}
	p = samplePacket()
	p.Capability = make([]byte, maxCapability+1)
	if _, err := p.Marshal(); !errors.Is(err, errTooLong) {
		t.Fatalf("long capability: %v", err)
	}
	p = samplePacket()
	p.Payload = make([]byte, 0x10000)
	if _, err := p.Marshal(); !errors.Is(err, errTooLong) {
		t.Fatalf("long payload: %v", err)
	}
}

func TestDecodeReusesBuffers(t *testing.T) {
	p := samplePacket()
	buf, _ := p.Marshal()
	var q Packet
	q.ASRoute = make([]uint32, 0, 16)
	q.Payload = make([]byte, 0, 64)
	q.Capability = make([]byte, 0, 16)
	for i := 0; i < 3; i++ {
		if err := q.DecodeFromBytes(buf); err != nil {
			t.Fatal(err)
		}
	}
	if len(q.ASRoute) != 3 || len(q.Payload) != len(p.Payload) {
		t.Fatal("repeat decode corrupted state")
	}
	// Mutating the source buffer must not change the decoded packet.
	buf[len(buf)-1] ^= 0xff
	if q.Payload[len(q.Payload)-1] == buf[len(buf)-1] {
		t.Fatal("decoded payload aliases input buffer")
	}
}

func TestTypeString(t *testing.T) {
	for typ := TypeData; typ < typeMax; typ++ {
		if typ.String() == "" {
			t.Fatalf("type %d has no name", typ)
		}
	}
	if Type(200).String() != "type(200)" {
		t.Fatal("unknown type rendering wrong")
	}
}

func TestPacketString(t *testing.T) {
	if samplePacket().String() == "" {
		t.Fatal("String must render")
	}
}

func BenchmarkMarshal(b *testing.B) {
	p := samplePacket()
	buf := make([]byte, 0, p.EncodedLen())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = buf[:0]
		if _, err := p.AppendTo(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	p := samplePacket()
	buf, _ := p.Marshal()
	var q Packet
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := q.DecodeFromBytes(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMarshalAlloc measures Marshal into a fresh buffer — the
// allocating path send uses when no buffer is pooled.
func BenchmarkMarshalAlloc(b *testing.B) {
	p := samplePacket()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := p.Marshal(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeFresh measures decoding into a zero Packet each time —
// the cost before the read loop reused its packet across datagrams.
func BenchmarkDecodeFresh(b *testing.B) {
	buf, _ := samplePacket().Marshal()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var q Packet
		if err := q.DecodeFromBytes(buf); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeRejectsTrailingBytes pins the strictness of the decoder:
// the wire format is exact-length, so any bytes after the declared
// payload are a malformed datagram, not ignorable padding.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	buf, err := samplePacket().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := p.DecodeFromBytes(buf); err != nil {
		t.Fatalf("exact packet must decode: %v", err)
	}
	for _, extra := range [][]byte{{0x00}, {0xff}, make([]byte, 100)} {
		bad := append(append([]byte{}, buf...), extra...)
		err := p.DecodeFromBytes(bad)
		if !errors.Is(err, errTrailing) {
			t.Fatalf("%d trailing bytes: want ErrTrailing, got %v", len(extra), err)
		}
	}
}

func mustMarshal(t *testing.T, p *Packet) []byte {
	t.Helper()
	b, err := p.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestMarshalAllocs pins the encoder's allocation budget: AppendTo into
// a pre-sized buffer must not allocate at all, and Marshal exactly once
// (the output buffer).
func TestMarshalAllocs(t *testing.T) {
	p := samplePacket()
	buf := make([]byte, 0, p.EncodedLen())
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := p.AppendTo(buf[:0]); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("AppendTo allocates %v per op with a sized buffer; want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := p.Marshal(); err != nil {
			t.Fatal(err)
		}
	}); avg > 1 {
		t.Fatalf("Marshal allocates %v per op; want ≤1 (the output buffer)", avg)
	}
}

// TestDecodeSteadyStateAllocs pins the decoder at zero allocations when
// the destination packet is reused, the contract the overlay read loop
// relies on.
func TestDecodeSteadyStateAllocs(t *testing.T) {
	buf, err := samplePacket().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	var p Packet
	if err := p.DecodeFromBytes(buf); err != nil { // warm slice capacities
		t.Fatal(err)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		if err := p.DecodeFromBytes(buf); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Fatalf("DecodeFromBytes allocates %v per op into a reused packet; want 0", avg)
	}
}

package wire

import (
	"bytes"
	"testing"
)

// FuzzDecodeRoundTrip feeds arbitrary bytes to the decoder (it must
// never panic) and, when they parse, re-encodes to verify the codec is
// strict: a successful decode consumes the input exactly — no trailing
// garbage, no non-canonical encodings — so re-encoding must reproduce
// the input byte for byte.
func FuzzDecodeRoundTrip(f *testing.F) {
	seed := samplePacket()
	buf, _ := seed.Marshal()
	f.Add(buf)
	f.Add(append(append([]byte{}, buf...), 0x00)) // trailing byte must be rejected
	f.Add([]byte{})
	f.Add([]byte{version, byte(TypeData)})
	f.Fuzz(func(t *testing.T, data []byte) {
		var p Packet
		if err := p.DecodeFromBytes(data); err != nil {
			return
		}
		out, err := p.Marshal()
		if err != nil {
			t.Fatalf("decoded packet failed to re-encode: %v", err)
		}
		if !bytes.Equal(out, data) {
			t.Fatalf("decode accepted a non-canonical encoding:\nin:  %x\nout: %x", data, out)
		}
	})
}

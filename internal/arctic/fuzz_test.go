package arctic

import (
	"encoding/binary"
	"hash/crc32"
	"slices"
	"testing"
)

// FuzzWireCRC: the slicing-by-4 fold in wireCRC equals the standard
// library's IEEE CRC-32 over the little-endian wire image, for any
// header and payload a packet can carry.
func FuzzWireCRC(f *testing.F) {
	for trial := 0; trial < 8; trial++ {
		payload := make([]byte, 4*(MinPayloadWords+trial))
		for i := range payload {
			payload[i] = byte(trial*31 + i)
		}
		f.Add(trial%2 == 1, uint16(trial*3%16), uint16(trial), uint8(trial), trial%3 == 0, uint16(trial*7), payload)
	}
	f.Fuzz(func(t *testing.T, hi bool, down, upDigits uint16, upSteps uint8, randomUp bool, tag uint16, payload []byte) {
		p := &Packet{DownRoute: down, UpDigits: upDigits, UpSteps: upSteps, RandomUp: randomUp, Tag: tag}
		if hi {
			p.Pri = High
		}
		for i := 0; i+4 <= len(payload) && len(p.Payload) < MaxPayloadWords; i += 4 {
			p.Payload = append(p.Payload, binary.LittleEndian.Uint32(payload[i:]))
		}
		wire := binary.LittleEndian.AppendUint32(nil, p.header0())
		wire = binary.LittleEndian.AppendUint32(wire, p.header1())
		for _, w := range p.Payload {
			wire = binary.LittleEndian.AppendUint32(wire, w)
		}
		if got, want := p.wireCRC(), crc32.ChecksumIEEE(wire); got != want {
			t.Fatalf("wireCRC %08x, crc32 %08x for %+v", got, want, p)
		}
	})
}

// FuzzPacketDecode: Decode never panics on arbitrary wire words; any
// packet it accepts re-encodes to words that decode to the same fields;
// and Encode then Decode is the identity on every packet Encode accepts,
// here one whose fields and payload are read from the same input.  The
// words are also decoded with their last replaced by the CRC of the
// rest, so the header checks behind the CRC see arbitrary input too.
func FuzzPacketDecode(f *testing.F) {
	seed := func(words []uint32) {
		var b []byte
		for _, w := range words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
		f.Add(b)
	}
	for _, p := range []*Packet{
		{Pri: High, DownRoute: downRouteFor(13), UpSteps: 2, UpDigits: 0b1101, RandomUp: true, Tag: 0x5aa, Payload: []uint32{0xdeadbeef, 0x01020304, 42}},
		{Payload: []uint32{1, 2, 3, 4}},
		{Payload: make([]uint32, MinPayloadWords)},
		{Payload: make([]uint32, MaxPayloadWords)},
	} {
		words, err := p.Encode()
		if err != nil {
			f.Fatal(err)
		}
		seed(words)
		flipped := append([]uint32(nil), words...)
		flipped[1] ^= 1 << 18
		seed(flipped)
	}
	seed([]uint32{1, 2})
	f.Fuzz(func(t *testing.T, wire []byte) {
		var words []uint32
		for i := 0; i+4 <= len(wire); i += 4 {
			words = append(words, binary.LittleEndian.Uint32(wire[i:]))
		}
		decodeReencodes(t, words)
		if len(words) < 3 {
			return
		}
		resealed := append([]uint32(nil), words...)
		resealed[len(words)-1] = crcOfWords(words[:len(words)-1])
		decodeReencodes(t, resealed)
		p := &Packet{
			Pri:       Priority(words[0] >> 31),
			DownRoute: uint16(words[0]),
			UpSteps:   uint8(words[1] % (maxUpSteps + 1)),
			UpDigits:  uint16(words[1]>>8) & 0x3ff,
			RandomUp:  words[1]>>31 == 1,
			Tag:       uint16(words[2]) & 0x7ff,
			Payload:   words[3:min(len(words), 3+MaxPayloadWords)],
		}
		p.Dst = dstFromDownRoute(p.DownRoute)
		enc, err := p.Encode()
		if err != nil {
			if len(p.Payload) >= MinPayloadWords {
				t.Fatalf("Encode rejected the valid %+v: %v", p, err)
			}
			return
		}
		if q, err := Decode(enc); err != nil || !samePacket(p, q) {
			t.Fatalf("%+v encodes to %08x, which decodes to %+v (%v)", p, enc, q, err)
		}
	})
}

// decodeReencodes checks that a packet Decode accepts from words
// re-encodes to words that decode to the same fields.
func decodeReencodes(t *testing.T, words []uint32) {
	p, err := Decode(words)
	if err != nil {
		return
	}
	again, err := p.Encode()
	if err != nil {
		t.Fatalf("Decode accepted %08x as %+v, which Encode rejects: %v", words, p, err)
	}
	if q, err := Decode(again); err != nil || !samePacket(p, q) {
		t.Fatalf("%+v re-encodes to %08x, which decodes to %+v (%v)", p, again, q, err)
	}
}

// samePacket compares the fields the wire words carry.
func samePacket(p, q *Packet) bool {
	return p.Pri == q.Pri && p.DownRoute == q.DownRoute && p.UpSteps == q.UpSteps &&
		p.UpDigits == q.UpDigits && p.RandomUp == q.RandomUp && p.Tag == q.Tag && p.Dst == q.Dst &&
		slices.Equal(p.Payload, q.Payload)
}

package arctic

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPacketEncodeDecodeRoundTrip(t *testing.T) {
	p := &Packet{
		Pri:       High,
		DownRoute: downRouteFor(13),
		UpSteps:   2,
		UpDigits:  0b1101,
		RandomUp:  true,
		Tag:       0x5aa,
		Payload:   []uint32{0xdeadbeef, 0x01020304, 42},
	}
	words, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(words) != HeaderWords+3+1 {
		t.Fatalf("wire words = %d", len(words))
	}
	q, err := Decode(words)
	if err != nil {
		t.Fatal(err)
	}
	if q.Pri != p.Pri || q.DownRoute != p.DownRoute || q.UpSteps != p.UpSteps ||
		q.UpDigits != p.UpDigits || q.RandomUp != p.RandomUp || q.Tag != p.Tag {
		t.Fatalf("header mismatch: %+v vs %+v", q, p)
	}
	if q.Dst != 13 {
		t.Fatalf("Dst = %d, want 13", q.Dst)
	}
	for i := range p.Payload {
		if q.Payload[i] != p.Payload[i] {
			t.Fatalf("payload[%d] = %#x", i, q.Payload[i])
		}
	}
}

func TestPacketEncodeDecodeProperty(t *testing.T) {
	f := func(pri bool, dst uint16, upSteps uint8, upDigits uint16, randomUp bool, tag uint16, seed int64, nWords uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := MinPayloadWords + int(nWords)%(MaxPayloadWords-MinPayloadWords+1)
		payload := make([]uint32, n)
		for i := range payload {
			payload[i] = rng.Uint32()
		}
		p := &Packet{
			DownRoute: dst & 0x3ff,
			UpSteps:   upSteps % (maxUpSteps + 1),
			UpDigits:  upDigits & 0x3ff,
			RandomUp:  randomUp,
			Tag:       tag & 0x7ff,
			Payload:   payload,
		}
		if pri {
			p.Pri = High
		}
		words, err := p.Encode()
		if err != nil {
			return false
		}
		q, err := Decode(words)
		if err != nil {
			return false
		}
		if q.Pri != p.Pri || q.DownRoute != p.DownRoute || q.UpSteps != p.UpSteps ||
			q.UpDigits != p.UpDigits || q.RandomUp != p.RandomUp || q.Tag != p.Tag || len(q.Payload) != n {
			return false
		}
		for i := range payload {
			if q.Payload[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPacketPayloadSizeLimits(t *testing.T) {
	for _, n := range []int{0, 1, 23, 30} {
		p := &Packet{Payload: make([]uint32, n)}
		if _, err := p.Encode(); !errors.Is(err, ErrPayloadSize) {
			t.Fatalf("payload %d words: err = %v, want ErrPayloadSize", n, err)
		}
	}
	for _, n := range []int{2, 22} {
		p := &Packet{Payload: make([]uint32, n)}
		if _, err := p.Encode(); err != nil {
			t.Fatalf("payload %d words: %v", n, err)
		}
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	p := &Packet{Payload: []uint32{1, 2, 3, 4}}
	words, err := p.Encode()
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit anywhere: CRC must catch it.
	for i := range words {
		mutated := append([]uint32(nil), words...)
		mutated[i] ^= 1 << uint(i%32)
		if _, err := Decode(mutated); err == nil {
			t.Fatalf("bit flip in word %d went undetected", i)
		}
	}
}

func TestDecodeShortPacket(t *testing.T) {
	if _, err := Decode([]uint32{1, 2}); err == nil {
		t.Fatal("short packet accepted")
	}
}

func TestWireBytes(t *testing.T) {
	p := &Packet{Payload: make([]uint32, 22)}
	if got := p.WireBytes(); got != (2+22+1)*4 {
		t.Fatalf("WireBytes = %d, want 100", got)
	}
	if got := p.PayloadBytes(); got != 88 {
		t.Fatalf("PayloadBytes = %d, want 88", got)
	}
}

func TestFieldRangeRejected(t *testing.T) {
	p := &Packet{Payload: []uint32{1, 2}, Tag: 0x800}
	if _, err := p.Encode(); !errors.Is(err, ErrFieldRange) {
		t.Fatalf("tag overflow: err = %v", err)
	}
	p = &Packet{Payload: []uint32{1, 2}, UpSteps: maxUpSteps + 1}
	if _, err := p.Encode(); !errors.Is(err, ErrFieldRange) {
		t.Fatalf("upsteps overflow: err = %v", err)
	}
}

func TestDigitHelpers(t *testing.T) {
	if digit(0b110110, 0) != 0b10 || digit(0b110110, 1) != 0b01 || digit(0b110110, 2) != 0b11 {
		t.Fatal("digit extraction wrong")
	}
	if replaceDigit(0b110110, 1, 0b10) != 0b111010 {
		t.Fatalf("replaceDigit = %b", replaceDigit(0b110110, 1, 0b10))
	}
}

// TestWireCRCMatchesByteAtATime pins the slicing-by-4 fold in wireCRC
// to hash/crc32's IEEE CRC-32 of the little-endian wire image, which
// Encode/Decode's trailer must also match.
func TestWireCRCMatchesByteAtATime(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		p := &Packet{
			Src:     trial,
			Dst:     trial * 3 % 16,
			Tag:     uint16(trial * 7),
			Payload: make([]uint32, MinPayloadWords+trial%8),
		}
		for i := range p.Payload {
			p.Payload[i] = uint32(trial*31+i) * 2654435761
		}
		wire := binary.LittleEndian.AppendUint32(nil, p.header0())
		wire = binary.LittleEndian.AppendUint32(wire, p.header1())
		for _, w := range p.Payload {
			wire = binary.LittleEndian.AppendUint32(wire, w)
		}
		if got, ref := p.wireCRC(), crc32.ChecksumIEEE(wire); got != ref {
			t.Fatalf("trial %d: wireCRC %08x != crc32 %08x", trial, got, ref)
		}
	}
}

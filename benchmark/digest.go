package main

// digest is an order-sensitive FNV-1a fingerprint over 64-bit words.
type digest uint64

func newDigest() *digest {
	d := digest(0xcbf29ce484222325)
	return &d
}

func (d *digest) add(words ...uint64) {
	h := uint64(*d)
	for _, v := range words {
		for b := 0; b < 8; b++ {
			h ^= (v >> (8 * b)) & 0xff
			h *= 0x100000001b3
		}
	}
	*d = digest(h)
}

func (d *digest) sum() uint64 { return uint64(*d) }

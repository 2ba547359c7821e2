package allocfree

// The free-list idiom: the miss path allocates once per buffer, steady
// state recycles — amortized-zero is the documented exception.

//parsec:noalloc
func warm(freelist [][]byte, buf []byte) [][]byte {
	//lint:allow allocfree (free-list growth is amortized; steady state appends into capacity)
	return append(freelist, buf)
}

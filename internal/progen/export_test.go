package progen

// RangeCalls counts the ReadRange and WriteRange calls one run of
// MainRanges makes, and the addresses they cover: each op of the program
// runs once.
func RangeCalls(p *Program) (calls, addrs int) {
	var walk func(b *block)
	walk = func(b *block) {
		for _, o := range b.ops {
			switch {
			case o.body != nil:
				walk(o.body)
			case (o.kind == opRead || o.kind == opWrite) && o.isRange():
				calls++
				addrs += int(o.n) + 1
			}
		}
	}
	walk(p.root)
	return calls, addrs
}

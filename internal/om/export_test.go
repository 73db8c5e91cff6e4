package om

// CheckInvariants exposes the internal consistency checker to tests.
func (l *List) CheckInvariants() error { return l.checkInvariants() }

// SetLabelSpaceForTest shrinks the top-level label space so tests can
// drive exhaustion and escalation with thousands of inserts instead of
// the ~2^61 buckets the production constants would require. Must be
// called before the first insert.
func (l *List) SetLabelSpaceForTest(soft, hard uint64) {
	l.maint.Lock()
	defer l.maint.Unlock()
	l.softBound = soft
	l.hardBound = hard
	l.bound = soft
}

// NewFirst, NewAfter and NewAfterN place fresh heap items — the tests'
// own records — where the production caller embeds its items in its
// strand records.
func (l *List) NewFirst() *Item {
	it := new(Item)
	l.InsertFirst(it)
	return it
}

func (l *List) NewAfter(x *Item) *Item { return l.NewAfterN(x, 1)[0] }

func (l *List) NewAfterN(x *Item, n int) []*Item {
	items := make([]*Item, n)
	for i := range items {
		items[i] = new(Item)
	}
	l.InsertAfterN(x, items)
	return items
}

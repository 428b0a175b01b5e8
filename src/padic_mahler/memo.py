"""The one place results are kept between calls: a slot per name holds
the value computed for its last key, whatever that call's outcome, and a
call with another key replaces it.  The sweep (slot "sweep") and the
Euclidean measure (slot "roots") keep here what the next call on the same
polynomial reuses.  Every kept value is a deterministic function of the
exact key, so a warm call returns what a cold one does, bit for bit.
"""

_slots = {}


def last(name, key, fresh):
    """The value slot ``name`` keeps for ``key``; else the slot is replaced
    by ``fresh()`` for ``key``, and that value returned."""
    if name not in _slots or _slots[name][0] != key:
        _slots[name] = key, fresh()
    return _slots[name][1]


def clear():
    """Empty every slot."""
    _slots.clear()

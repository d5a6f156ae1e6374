"""The braid-move scan of the reference model against the substring search
it replaced: the same moves, in the same order, and the same closures, on
every word of length <= 8 over A2, B2, A3 and I2(inf)."""

from oracles import _move_table, _moves, all_words, word_class

from coxmon import named_graph
from coxmon.graphs import is_infinite


def substring_moves(g, word):
    """All words one braid move away, by testing every substring: it is a
    move when it holds exactly two letters a < b and equals the alternating
    word a b a ... or b a b ... of length m(a, b)."""
    out = []
    n = len(word)
    for i in range(n):
        for j in range(i + 1, n + 1):
            piece = word[i:j]
            letters = set(piece)
            if len(letters) != 2:
                continue
            a, b = sorted(letters)
            m = g.m(a, b)
            if is_infinite(m) or j - i != m:
                continue
            ab = tuple(a if k % 2 == 0 else b for k in range(m))
            ba = tuple(b if k % 2 == 0 else a for k in range(m))
            if piece == ab:
                out.append(word[:i] + ba + word[j:])
            elif piece == ba:
                out.append(word[:i] + ab + word[j:])
    return out


def substring_closure(g, word):
    seen = {word}
    todo = [word]
    while todo:
        for nxt in substring_moves(g, todo.pop()):
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return frozenset(seen)


def test_move_scan_matches_the_substring_search():
    for name in ("A2", "B2", "A3", "I2(inf)"):
        g = named_graph(name)
        table = _move_table(g)
        done = set()
        for w in all_words(g, 8):
            assert _moves(table, w) == substring_moves(g, w), (name, w)
            if w not in done:
                closure = substring_closure(g, w)
                assert word_class(g, w) == closure, (name, w)
                done |= closure

"""The lemma suite's draws: random.Random(seed)'s calls, read in bulk.

certify.lemma_consistency_suite samples tuples of ball slots by rejection
with random.Random(seed): per attempt j = randint(2, max_len), then j slots
randrange(|B|), kept when every signed prefix product stays in the ball;
then choice((1, -1)) per factor of each kept tuple. Each of those calls is
random.Random._randbelow(n), which tries the top n.bit_length() bits of
one 32-bit word of the Mersenne Twister after another until they are below
n. Stream reads those words in bulk, draw_tuples parses them into attempts
as the calls would, and in_ball tests a batch of attempts at once, so the
tuples and signs are exactly those of the calls.
"""
import random

import numpy as np

from . import groups as G_

# the words of the stream that draw_tuples parses at a time
WORDS = 1 << 14


class Stream:
    """random.Random(seed)'s stream of 32-bit words, read in bulk: the state
    of random.Random(seed) loaded into numpy's MT19937, whose random_raw
    gives the same words. ``words`` holds the words read and not consumed,
    as int64."""

    def __init__(self, seed):
        state = random.Random(seed).getstate()[1]
        self._bits = np.random.MT19937()
        self._bits.state = {"bit_generator": "MT19937", "state": {
            "key": np.array(state[:-1], dtype=np.uint32), "pos": state[-1]}}
        self.words = np.empty(0, dtype=np.int64)

    def more(self):
        """Read WORDS more words."""
        self.words = np.concatenate(
            (self.words, self._bits.random_raw(WORDS).astype(np.int64)))

    def tries(self, n):
        """random.Random._randbelow(n) tried on each word read, 1 <= n <
        2**32: the word's top n.bit_length() bits, and whether they are
        below n (else _randbelow rejects the word and tries the next)."""
        v = self.words >> (32 - n.bit_length())
        return v, v < n

    def below(self, n, count):
        """The next count values of random.Random._randbelow(n), consumed."""
        while True:
            v, ok = self.tries(n)
            at = np.flatnonzero(ok)
            if len(at) >= count:
                break
            self.more()
        if count:
            self.words = self.words[at[count - 1] + 1:]
        return v[at[:count]]


def draw_tuples(stream, size, max_len, samples, keep):
    """The tuples of slots that random.Random(seed), here ``stream``, draws
    by rejection: attempt after attempt j = randint(2, max_len), then j slots
    randrange(size), kept when ``keep`` says so, until samples are kept or
    after samples * 50 attempts. A list of int arrays, in draw order.

    randint(2, max_len) is 2 + _randbelow(max_len - 1). So an attempt that
    starts at word i reads j at the first word p >= i that _randbelow(max_len
    - 1) accepts and its slots at the next j words that _randbelow(size)
    accepts: every start's end is computed at once, and the chain of
    attempts from the first is a walk through those ends. keep(slots, js)
    tests a batch of attempts, their slots flat and js their lengths."""
    kept, attempts, cap = [], 0, samples * 50
    while len(kept) < samples and attempts < cap:
        stream.more()
        w = stream.words
        v1, ok1 = stream.tries(max_len - 1)
        v2, ok2 = stream.tries(size)
        at1, at2 = np.flatnonzero(ok1), np.flatnonzero(ok2)
        if not len(at1) or not len(at2):
            continue
        # per start i: its j at word at1[k], its slots at words at2[c:c + j]
        k = np.cumsum(ok1) - ok1
        p = at1[np.minimum(k, len(at1) - 1)]
        j = 2 + v1[p]
        c = np.cumsum(ok2)[p]
        last = c + j - 1
        # the start after, past len(w) for an attempt past the words read
        past = len(w) + 1
        ends = np.where((k < len(at1)) & (last < len(at2)),
                        at2[np.minimum(last, len(at2) - 1)] + 1, past)
        ends = np.append(ends, (past, past))
        starts = _chain(ends, cap - attempts)
        i = ends[starts[-1]] if len(starts) else 0
        # the attempts in batches, so that no level of keep's signed prefix
        # products exceeds G_.BLOCK entries
        step = max(1, G_.BLOCK >> max_len)
        for b in range(0, len(starts), step):
            js = j[starts[b:b + step]]
            first = np.cumsum(js) - js
            flat = v2[at2[np.repeat(c[starts[b:b + step]] - first, js)
                          + np.arange(js.sum())]]
            hits = np.flatnonzero(keep(flat, js))[:samples - len(kept)]
            kept += [flat[first[h]:first[h] + js[h]] for h in hits.tolist()]
            if len(kept) == samples:
                attempts += b + int(hits[-1]) + 1
                i = ends[starts[b + hits[-1]]]
                break
            attempts += len(js)
        stream.words = w[i:]
    return kept


def _chain(ends, limit):
    """The first ``limit`` steps of the walk 0, ends[0], ends[ends[0]], ...
    before it reaches a step whose entry is past, the last index of ends,
    its own entry; every other entry lies beyond its index. Pointer
    doubling: after r rounds ``walk`` holds the first 2^r steps and
    ``jump`` is ends taken 2^r times."""
    past = len(ends) - 1
    walk, jump = np.zeros(1, dtype=ends.dtype), ends
    while walk[-1] != past and len(walk) <= limit:
        walk = np.concatenate((walk, jump[walk]))
        jump = jump[jump]
    return walk[ends[walk] != past][:limit]


def in_ball(table, inv, slots, js):
    """Whether every signed prefix product of each tuple of slots, flat
    with js (each at least 2) their lengths, lies in the ball of the
    product table ``table`` (inv the slots' inverses), level by level while
    a tuple's products stay in the ball. The first level, x and x^-1, does:
    the ball is closed under inverses."""
    ok = np.ones(len(js), dtype=bool)
    alive = np.arange(len(js))
    offsets = np.cumsum(js) - js
    x = slots[offsets]
    level = np.stack((x, inv[x]), axis=1)
    t = 1
    while len(alive):
        x = slots[offsets[alive] + t]
        level = table[level[:, :, None], np.stack((x, inv[x]), axis=1)[
            :, None, :]].reshape(len(alive), -1)
        out = (level < 0).any(axis=1)
        ok[alive[out]] = False
        t += 1
        more = ~out & (js[alive] > t)
        alive, level = alive[more], level[more]
    return ok

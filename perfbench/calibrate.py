"""Host-speed calibration: a fixed pure-Python kernel timed between jobs.

A shared host's single-core speed drifts by tens of percent over seconds
and minutes, on every core at once, so raw job times from runs made a
few minutes apart differ by more than any change worth measuring.  The
benchmark therefore times this kernel between jobs (outside the timed
region) and scales each job's time by REFERENCE_S / (the kernel's median
time around that job): the reported figure is the job's time on a host
that runs the kernel in REFERENCE_S.

The kernel is frozen here and shares no code with hb, so a change to hb
moves the scaled times by exactly as much as the raw ones.  It does what
hb's inner loops do (method calls on small slotted objects, table
lookups in a finite field, tuple keys in a dict): polynomial products,
remainders and gcds over a tabulated F_4.
"""

import random
import statistics
import time

REFERENCE_S = 0.005     # kernel time that defines the reference host speed
EVERY_S = 0.1           # at most this much job time between two samples
WINDOW_S = 1.0          # samples this close to a job set its scale
NEAREST = 3             # fewer samples in the window: use the nearest ones


class _F4:
    """F_4 = F_2[u]/(u^2 + u + 1) on codes a + 2b for a + b*u."""

    def __init__(self):
        def mul(x, y):
            a0, a1, b0, b1 = x & 1, x >> 1, y & 1, y >> 1
            return ((a0 & b0) ^ (a1 & b1)) | \
                (((a0 & b1) ^ (a1 & b0) ^ (a1 & b1)) << 1)
        self.q = 4
        self._mul = [mul(a, b) for a in range(4) for b in range(4)]
        self._add = [a ^ b for a in range(4) for b in range(4)]
        self._inv = [0] + [next(b for b in range(1, 4) if mul(a, b) == 1)
                           for a in range(1, 4)]

    def add(self, a, b):
        return self._add[a * self.q + b]

    def mul(self, a, b):
        return self._mul[a * self.q + b]

    def inv(self, a):
        return self._inv[a]


class _Poly:
    __slots__ = ("field", "coeffs")

    def __init__(self, field, coeffs):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.field = field
        self.coeffs = tuple(cs)

    def __add__(self, other):
        F = self.field
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = F.add(out[i], c)
        return _Poly(F, out)

    def __mul__(self, other):
        F = self.field
        if not self.coeffs or not other.coeffs:
            return _Poly(F, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = F.add(out[i + j], F.mul(a, b))
        return _Poly(F, out)

    def __divmod__(self, other):
        F = self.field
        rem = list(self.coeffs)
        db = len(other.coeffs) - 1
        inv_lead = F.inv(other.coeffs[-1])
        quo = [0] * max(len(rem) - db, 0)
        while rem and len(rem) - 1 >= db:
            if rem[-1] == 0:
                rem.pop()
                continue
            c = F.mul(rem[-1], inv_lead)
            shift = len(rem) - 1 - db
            quo[shift] = c
            for i, bc in enumerate(other.coeffs):
                rem[shift + i] = F.add(rem[shift + i], F.mul(c, bc))
            rem.pop()
        return _Poly(F, quo), _Poly(F, rem)


def _gcd(a, b):
    while b.coeffs:
        a, b = b, divmod(a, b)[1]
    return a


_FIELD = _F4()
_rng = random.Random(7)
_POLYS = [_Poly(_FIELD, [_rng.randrange(4) for _ in range(_rng.randrange(3, 9))]
                + [1]) for _ in range(16)]
del _rng


def kernel():
    """A fixed amount of work; returns a checksum so it cannot be skipped."""
    table = {}
    total = 0
    n = len(_POLYS)
    for i in range(n):
        for j in range(i + 1, n):
            a = _POLYS[i]
            num = a * _POLYS[j] + _POLYS[(i * j) % n]
            g = _gcd(num, a)
            table[num.coeffs] = divmod(num, g)[0]
            total += len(g.coeffs)
    return total + len(table)


class Speed:
    """Kernel samples taken between jobs, each (time taken, kernel seconds)."""

    def __init__(self):
        self.samples = []
        self.last = None
        self.checksum = None

    def sample(self):
        clock = time.perf_counter
        t0 = clock()
        checksum = kernel()
        t1 = clock()
        if self.checksum is None:
            self.checksum = checksum
        elif checksum != self.checksum:
            raise RuntimeError("calibration kernel gave another result")
        self.samples.append(((t0 + t1) / 2, t1 - t0))
        self.last = t1

    def tick(self):
        """Take a sample if EVERY_S has passed since the last one."""
        if self.last is None or time.perf_counter() - self.last >= EVERY_S:
            self.sample()

    def local(self, start, end):
        """Median kernel time of the samples around [start, end]."""
        near = [s for t, s in self.samples
                if start - WINDOW_S <= t <= end + WINDOW_S]
        if len(near) < NEAREST:
            mid = (start + end) / 2
            near = [s for _t, s in sorted(
                self.samples, key=lambda ts: abs(ts[0] - mid))[:NEAREST]]
        return statistics.median(near)

    def scale(self, start, seconds):
        """`seconds` of wall time from `start`, at the reference speed."""
        return seconds * REFERENCE_S / self.local(start, start + seconds)

    def median(self):
        return statistics.median(s for _t, s in self.samples)

"""Root data and Weyl group machinery for C_n.

Everything here is exact, in plain ints: every root of C_n and every
weight's epsilon coordinates are integral.  The Weyl group is the
hyperoctahedral group of signed permutations; elements are carried around
both as reduced words (for output) and as signed one-line permutations (for
equality and root actions).

Cartan matrix convention: entries A[i][j] = 2(alpha_i, alpha_j)/(alpha_j,
alpha_j), so the single -2 sits in row n, column n-1.  `reflect` reads its
rows; test_lie_core.py pins the convention by checking `reflect` against
the simple reflection on epsilon coordinates, which the transpose fails.
"""

from dataclasses import dataclass

from .errors import InvalidParabolicError, InvalidRankError


@dataclass(frozen=True)
class Weight:
    """Weight in the fundamental-weight basis of C_n."""

    coeffs: tuple

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))

    @property
    def n(self):
        return len(self.coeffs)

    def __add__(self, other):
        return Weight(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return Weight(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)


@dataclass(frozen=True)
class WeylWord:
    """Reduced word in the simple reflections s_1..s_n."""

    letters: tuple

    def __post_init__(self):
        object.__setattr__(self, "letters", tuple(self.letters))

    @property
    def length(self):
        return len(self.letters)


class RootSystem:
    """Root system of type C_n with integer Cartan data."""

    def __init__(self, n):
        if n < 2:
            raise InvalidRankError(f"rank must be >= 2, got {n}")
        self.n = n
        self.simple_roots = []
        for i in range(1, n):
            v = [0] * n
            v[i - 1] = 1
            v[i] = -1
            self.simple_roots.append(tuple(v))
        v = [0] * n
        v[n - 1] = 2
        self.simple_roots.append(tuple(v))
        self.cartan = [
            [self._pairing(a, b) for b in self.simple_roots] for a in self.simple_roots
        ]
        self.rho = Weight((1,) * n)

    @staticmethod
    def _pairing(a, b):
        return 2 * sum(x * y for x, y in zip(a, b)) // sum(y * y for y in b)

    # --- weight coordinate changes ---------------------------------------
    def to_epsilon(self, w):
        """Fundamental coefficients -> coordinates in the epsilon basis."""
        coeffs = w.coeffs
        out = []
        running = 0
        for c in reversed(coeffs):
            running += c
            out.append(running)
        return tuple(reversed(out))

    def from_epsilon(self, vec):
        n = self.n
        coeffs = [vec[i] - vec[i + 1] for i in range(n - 1)] + [vec[n - 1]]
        return Weight(tuple(coeffs))

    def positive_roots(self):
        """All positive roots in epsilon coordinates."""
        n = self.n
        roots = []
        for i in range(n):
            for j in range(i + 1, n):
                for sj in (-1, 1):
                    v = [0] * n
                    v[i] = 1
                    v[j] = sj
                    roots.append(tuple(v))
            v = [0] * n
            v[i] = 2
            roots.append(tuple(v))
        return roots

    # --- signed permutations ----------------------------------------------
    # A signed permutation is a tuple sigma with sigma[i] in {+-1..+-n};
    # it sends epsilon_{i+1} to sign(sigma[i]) * epsilon_{|sigma[i]|}.
    def identity_perm(self):
        return tuple(range(1, self.n + 1))

    def simple_perm(self, i):
        if not 1 <= i <= self.n:
            raise InvalidRankError(f"simple reflection index {i} out of range")
        sigma = list(range(1, self.n + 1))
        if i < self.n:
            sigma[i - 1], sigma[i] = sigma[i], sigma[i - 1]
        else:
            sigma[self.n - 1] = -self.n
        return tuple(sigma)

    @staticmethod
    def compose(p, q):
        """Composition p o q of signed permutations (apply q first)."""
        out = []
        for v in q:
            img = p[abs(v) - 1]
            out.append(img if v > 0 else -img)
        return tuple(out)

    def word_to_perm(self, word):
        perm = self.identity_perm()
        for letter in word.letters:
            perm = self.compose(perm, self.simple_perm(letter))
        return perm

    @staticmethod
    def inverse_perm(p):
        out = [0] * len(p)
        for i, v in enumerate(p):
            out[abs(v) - 1] = (i + 1) if v > 0 else -(i + 1)
        return tuple(out)

    @staticmethod
    def apply_perm(p, vec):
        out = [0] * len(vec)
        for i, v in enumerate(p):
            if v > 0:
                out[v - 1] += vec[i]
            else:
                out[-v - 1] -= vec[i]
        return tuple(out)

    @staticmethod
    def vec_positive(vec):
        for x in vec:
            if x > 0:
                return True
            if x < 0:
                return False
        return False  # zero vector is not a root

    # --- operations --------------------------------------------------------
    def reflect(self, w, i):
        """Simple reflection s_i acting on a weight in fundamental coordinates."""
        if not 1 <= i <= self.n:
            raise InvalidRankError(f"simple reflection index {i} out of range")
        ci = w.coeffs[i - 1]
        row = self.cartan[i - 1]
        return Weight(tuple(c - ci * row[j] for j, c in enumerate(w.coeffs)))

    def affine_action(self, word, lam):
        """rho-shifted action w . lam = w(lam + rho) - rho."""
        perm = self.word_to_perm(word)
        shifted = self.to_epsilon(lam + self.rho)
        moved = self.apply_perm(perm, shifted)
        rho_eps = self.to_epsilon(self.rho)
        return self.from_epsilon(tuple(a - b for a, b in zip(moved, rho_eps)))

    def hasse_words(self, crossed, max_len):
        """Minimal coset representatives for the parabolic with `crossed` nodes.

        Returns all WeylWords w of reduced length <= max_len such that
        w^{-1} maps every positive root of the Levi factor (the uncrossed
        nodes) to a positive root, sorted by length then lexicographically.
        """
        crossed = set(crossed)
        if not crossed:
            raise InvalidParabolicError("crossed node set must be nonempty")
        if not crossed <= set(range(1, self.n + 1)):
            raise InvalidParabolicError(f"crossed nodes {sorted(crossed)} out of range 1..{self.n}")
        levi = [i for i in range(1, self.n + 1) if i not in crossed]
        levi_simples = [self.simple_roots[i - 1] for i in levi]

        seen = {self.identity_perm(): ()}
        frontier = [(self.identity_perm(), ())]
        for _ in range(max_len):
            nxt = []
            for perm, word in frontier:
                for i in range(1, self.n + 1):
                    p2 = self.compose(perm, self.simple_perm(i))
                    if p2 not in seen:
                        seen[p2] = word + (i,)
                        nxt.append((p2, word + (i,)))
            frontier = nxt

        out = []
        for perm, word in seen.items():
            inv = self.inverse_perm(perm)
            if all(self.vec_positive(self.apply_perm(inv, a)) for a in levi_simples):
                out.append(WeylWord(word))
        out.sort(key=lambda w: (w.length, w.letters))
        return out


def build_root_system(n):
    return RootSystem(n)

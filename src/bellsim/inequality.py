"""Bell-inequality machinery: the N-chain and mixture analysis.

The chain inequality is handled in correlator form,

    E(a1,b1) + E(b1,a2) + E(a2,b2) + ... + E(aN,bN) - E(bN,a1),

with the local bound computed by enumerating deterministic strategies
rather than asserted from a remembered constant.  Quantum optima are a
table of what a seeded multi-start coordinate ascent over measurement
angles finds; the tests hold that search and re-derive the table bit for
bit.  Mixture analysis covers models that are local with weight p and
quantum with weight 1-p, under the worst-case assumption that the local
part saturates the enumerated local bound.  Only chain_value, which
reads a Behavior, imports bellsim.quantum (and with it numpy), in its
body; everything else here is pure Python, and its records, ChainSpec
and ChainOptimum, are namedtuples.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .quantum import Behavior

Term = tuple[tuple[int, int], int]

# The largest chain with a tabled quantum optimum, and the largest whose
# 2**N local assignments local_bound enumerates.
MAX_CHAIN_N = 12


class ChainSpec(namedtuple("ChainSpec", "n terms")):
    """The 2N signed correlator terms of an N-chain, the tuple (n, terms).

    Each term is ((alice_setting, bob_setting), sign).  Exactly one sign
    is negative and every setting of either party appears in exactly two
    terms.
    """

    __slots__ = ()

    def __new__(cls, n: int, terms: tuple[Term, ...]) -> ChainSpec:
        if n < 2:
            raise ValueError(f"chain needs N >= 2, got {n}")
        if len(terms) != 2 * n:
            raise ValueError(f"chain N={n} needs {2 * n} terms")
        if sum(1 for _, sign in terms if sign == -1) != 1:
            raise ValueError("chain needs exactly one negative term")
        if any(sign not in (-1, 1) for _, sign in terms):
            raise ValueError("term signs must be +1 or -1")
        for party in (0, 1):
            counts = [0] * n
            for pair, _ in terms:
                if not 0 <= pair[party] < n:
                    raise ValueError(f"setting {pair[party]} out of range")
                counts[pair[party]] += 1
            if any(c != 2 for c in counts):
                raise ValueError("every setting must appear in exactly two terms")
        return super().__new__(cls, n, terms)

    # namedtuple's _make, which _replace calls, would skip __new__'s checks.
    _make = classmethod(lambda cls, fields: cls(*fields))


def chain_spec(n: int) -> ChainSpec:
    """Canonical N-chain term list with the negative sign on E(bN, a1)."""
    terms: list[Term] = []
    for i in range(n):
        terms.append(((i, i), 1))
        if i + 1 < n:
            terms.append(((i + 1, i), 1))
    terms.append(((0, n - 1), -1))
    return ChainSpec(n=n, terms=tuple(terms))


def _check_weight(p: float) -> None:
    """The local weight p of a mixture lies in [0, 1]."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"weight p must be in [0, 1], got {p!r}")


def _require_bipartite(b: Behavior) -> None:
    if b.parties != 2:
        raise ValueError(f"need a bipartite behavior, got {b.parties} parties")


def chain_value(b: Behavior, spec: ChainSpec) -> float:
    """Signed correlator sum of the chain terms."""
    from .quantum import correlator

    _require_bipartite(b)
    if min(b.settings_per_party) < spec.n:
        raise ValueError(
            f"chain N={spec.n} needs {spec.n} settings per party, "
            f"behavior has {b.settings_per_party}"
        )
    return sum(sign * correlator(b, pair) for pair, sign in spec.terms)


def local_bound(spec: ChainSpec) -> float:
    """Max chain value over deterministic local strategies, by enumeration.

    Every Bob setting y sits in exactly two terms, s1 E(x1,y) + s2 E(x2,y),
    so once Alice's +-1 assignment a is fixed, Bob's best answer at y
    scores |s1 a[x1] + s2 a[x2]|: 2 if s1 a[x1] == s2 a[x2], else 0.  All
    2**N assignments are scored at once in integer bit slices: bit k of
    a column's mask says whether assignment k (a[x] = -1 where bit x of k
    is set) scores at that column, a ripple-carry adder over the masks
    counts the scoring columns of every assignment, and the largest count
    is read off the counter's bit planes from the top.  Exact, since only
    integers are involved.
    """
    n = spec.n
    if n > MAX_CHAIN_N:
        raise ValueError(f"enumeration limited to N <= {MAX_CHAIN_N}, got {n}")
    full = (1 << (1 << n)) - 1
    # alice[x] has bit k set iff bit x of k is: 2**x clear bits, then 2**x
    # set bits, repeated.
    alice = [
        full // ((1 << (2 << x)) - 1) * (((1 << (1 << x)) - 1) << (1 << x)) for x in range(n)
    ]
    scoring = [full] * n
    for (x, y), sign in spec.terms:
        scoring[y] ^= alice[x] if sign == 1 else full ^ alice[x]
    planes: list[int] = []
    for carry in scoring:
        for j, plane in enumerate(planes):
            planes[j], carry = plane ^ carry, plane & carry
        if carry:
            planes.append(carry)
    best, alive = 0, full
    for j in reversed(range(len(planes))):
        if alive & planes[j]:
            alive &= planes[j]
            best |= 1 << j
    return float(2 * best)


#: The quantum optimum of one chain size and the angles reaching it.
ChainOptimum = namedtuple("ChainOptimum", "value angles_a angles_b")


#: N -> (value, Alice's angles, Bob's angles) for the singlet.  The angles
#: are the best of 32 seeded starts of coordinate ascent, and the value is
#: chain_value of the Born behavior at them; tests/oracles.py holds that
#: search, and a test re-derives every entry bit for bit.
_CHAIN_OPTIMA: dict[int, tuple[float, tuple[float, ...], tuple[float, ...]]] = {
    2: (
        2.82842712474619,
        (2.4965840994822113, 0.9257877726873145),
        (-1.4304067175050303, -3.001203044299927),
    ),
    3: (
        5.196152422706168,
        (2.6889040657702474, -2.5470836350540647, -1.4998871453973057),
        (0.07091021535809136, 1.118107263364108, 2.1653047869813675),
    ),
    4: (
        7.391036260081567,
        (0.9969959233270314, 1.7823913861216654, 2.5677929554724126, -2.929991487706911),
        (-1.751898998865445, -0.9665004827927541, -0.18109926611724927, 0.6042985446049568),
    ),
    5: (
        9.510565162918722,
        (-2.2152741763037604, -2.843596164560286, 2.8112757980333676, 2.182963930059838,
            1.554644331012369),
        (0.6121574831577701, -0.01616018326345926, -0.6444727895431904, -1.2727885230536897,
            -1.9011112494405924),
    ),
    6: (
        11.591109915396196,
        (1.2483588574392999, 0.7247543700399985, 0.20114561718242507, -0.32245742387414567,
            -0.8460504876714422, -1.3696392860104667),
        (-2.155036039850144, -2.6786426599785815, 3.080936750243933, 2.5573386978169994,
            2.0337477667488386, 1.5101561125093133),
    ),
    7: (
        13.648990770417932,
        (2.1792341494221765, 1.7304263582168495, 1.281615288402783, 0.8328100660609986,
            0.3840154140066229, -0.06477190458723124, -0.5135606487927987),
        (-1.1867623997702803, -1.635571830279977, -2.0843799763579023, -2.5331799135559825,
            -2.9819708988800975, 2.8524263768997784, 2.4036330771095855),
    ),
    8: (
        15.692564486254954,
        (1.381984543400748, 0.9892940304574873, 0.5965930339303586, 0.20388267549987163,
            -0.18883043907744623, -0.5815380895316339, -0.9742352564019533,
            -1.3669230613689145),
        (-1.9559533666606754, -2.3486491213958702, -2.7413547988746783, -3.1340665353785804,
            2.7564083892852533, 2.3637059806229996, 1.9710134947043594, 1.5783270678108134),
    ),
    9: (
        17.726539553942654,
        (1.046841969660178, 1.3959018356500046, 1.7449536921873485, 2.094004087155541,
            2.4430602523223617, 2.7921267195155237, 3.1412032001301213, -2.7929005870095143,
            -2.443821359543423),
        (-1.920220750934702, -1.5711648896711168, -1.2221137639183486, -0.873060483850842,
            -0.5239991676708505, -0.17492769376697073, 0.1741513065603035,
            0.5232316803133247, 0.8723066318532743),
    ),
    10: (
        19.75376681153345,
        (2.4467702865517253, 2.7609427716892996, 3.075106177106273, -2.8939263857383786,
            -2.57978181167594, -2.2656397963100563, -1.9514937507296717,
            -1.6373386254286868, -1.3231728390456627, -1.0089988823901432),
        (-0.5377361244692808, -0.22356817919200686, 0.09058989568394726, 0.404738554882634,
            0.7188818495967951, 1.0330258800699292, 1.347176465510614, 1.6613369213526186,
            1.9755067928718903, 2.2896820288756876),
    ),
    11: (
        21.77607172090673,
        (2.3002322252996903, 2.014622393218091, 1.7290225662722831, 1.4434329015581777,
            1.1578503297349223, 0.8722695295189365, 0.5866846171538488, 0.3010910144615723,
            0.015486902381500068, -0.2701262014906053, -0.555743924728544),
        (-0.9841653443309025, -1.269770173844606, -1.555364919674563, -1.8409510379432432,
            -2.126532723962864, -2.4121155802534004, -2.6977048377820827,
            -2.983303695168257, 3.014273004035241, 2.7286575904802186, 2.4430404770804697),
    ),
    12: (
        23.79467667236312,
        (-1.738641271090746, -2.0004207285029327, -2.262204575967729, -2.523996977505176,
            -2.7857998050784536, -3.0476121370028633, 2.973754802269092, 2.7119354840829795,
            2.450120555949477, 2.188314181888625, 1.9265182338636047, 1.6647317901897154),
        (1.2720616537929539, 1.0102800013544624, 0.7484918768533407, 0.4866942622979786,
            0.22488668254913483, -0.0369286673668856, -0.29874751041375747,
            -0.5605646335735649, -0.8223752846707421, -1.0841764457136784,
            -1.3459676415631332, -1.6077510672454118),
    ),
}


@functools.lru_cache(maxsize=None)
def quantum_chain_optimum(n: int) -> ChainOptimum:
    """The singlet's largest chain value over all 2N angles, from the table.

    The values match 2N cos(pi/2N) to within the search's stopping
    tolerance.
    """
    if not 2 <= n <= MAX_CHAIN_N:
        raise ValueError(f"chain optimum supports 2 <= N <= {MAX_CHAIN_N}, got {n}")
    return ChainOptimum(*_CHAIN_OPTIMA[n])


def mixture_max_value(p: float, n: int) -> float:
    """(1-p) Q_N + p L_N with the local part saturating the local bound."""
    _check_weight(p)
    q = quantum_chain_optimum(n).value
    lb = local_bound(chain_spec(n))
    return (1.0 - p) * q + p * lb


def mixture_deviation(p: float, n: int) -> float:
    """Guaranteed shortfall from the quantum optimum: p (Q_N - L_N)."""
    _check_weight(p)
    q = quantum_chain_optimum(n).value
    lb = local_bound(chain_spec(n))
    return p * (q - lb)

"""The paper's certified values, each stated once.

The verification subcommands of ``moduliq`` exit 2 when a printed value
misses its entry here, and ``luna.sextic_discriminant`` asserts against the
same entries.  Values are given in the form the ``--json`` record prints
them: integers, lists, and rationals as ``p/q`` text.  The test suite keeps
its own literals, as the independent statement this table is checked
against.
"""

# luna: the versal sextic discriminant and the degree-12 slice discriminant
SEXTIC_EPSILON5 = -46656  # coefficient of e^5, its unique degree-5 monomial
SEXTIC_ISOBARIC_WEIGHT = 30
DISC12_ORDER = 10

# theta: the roots of E8, the q coefficient of its theta series
E8_ROOTS = 240

# dimension: the weight-10 obstruction space of L_dm, 4 = 2 + 2
DIMENSION = {"total": 4, "eisenstein": 2, "cusp": 2}

# ledger: the canonical-bundle system and the K-equivalence obstruction
KIRWAN_EXCEPTIONAL = "4"
DISCREPANCY = "2/3"
LEDGER_CONFLICTS = 1
LEDGER_REPAIR = {"class": "T", "value": "-16"}  # +16T as printed, -16T entailed
VALUATION_AT_3 = -22
T9 = "7/103680"  # top self-intersection of the toroidal boundary

# kirwan: lower bounds below which the blow-up series is valid
MIN_DOUBLE_CODIM = 10
EXTRA_TERM_BOUND = 5

# kirwan: the even Betti numbers of the Kirwan blow-up and of the toroidal
# compactification, which agree
BETTI_TABLE = [1, 2, 3, 4, 5, 5, 4, 3, 2, 1]

# borcherds: the product built from the theta*theta/Delta input, its weight
# and divisor
MA_WEIGHT = "51"
MA_DIVISOR = {("00", "-2"): 1, ("4/3", "-2/3"): 27, ("2/3", "-4/3"): 3}

"""Exception types shared across the package.

Every exception message names the concrete condition that was violated so
that CLI error output is self-explanatory.  Errors for bad argument values
also derive from ValueError.
"""


class Rank3Error(Exception):
    """Base class for all errors raised by this package."""


class NotPrime(Rank3Error):
    pass


class NotPrimePower(Rank3Error, ValueError):
    pass


class ModulusOutOfRange(Rank3Error, ValueError):
    pass


class NotAUnit(Rank3Error, ValueError):
    pass


class IndexOutOfRange(Rank3Error, ValueError):
    pass


class BadVariant(Rank3Error, ValueError):
    """Peisert variant other than 1 or 3."""


class DegreeOutOfRange(Rank3Error):
    pass


class CapExceeded(Rank3Error):
    pass


# the default caps, here so that the CLI's parser loads no other module
DEFAULT_FIELD_CAP = 2 ** 20  # field order q
DEFAULT_N_CAP = 4096  # modulus n of the lemma, field order q of classify
DEFAULT_SRG_CAP = 1024  # vertices of a strong-regularity check


class FieldMismatch(Rank3Error):
    pass


class OutputNotWritable(Rank3Error):
    """The report cannot be written to its target, a path or stdout."""


class EmptySet(Rank3Error):
    pass


class MalformedPartition(Rank3Error):
    pass


class OrderCondition(Rank3Error):
    """ord_ell(p) != ell - 1."""


class DegreeCondition(Rank3Error):
    """(ell - 1) does not divide r, or r has the wrong parity."""


class CharCondition(Rank3Error):
    """The characteristic p has the wrong residue mod 4."""


class NotSymmetric(Rank3Error):
    """Connection set is not closed under negation."""


class Directed(Rank3Error):
    pass


class TooLarge(Rank3Error):
    pass


class DegenerateModulus(Rank3Error):
    """q = 2 leaves nothing to act on: Z_1 has no two-orbit partitions."""


class InfeasibleParameters(Rank3Error):
    """(v, k, lambda, mu) fails k(k - lambda - 1) = (v - k - 1) mu."""


class InvariantViolation(Rank3Error):
    """An identity that the mathematics guarantees did not hold."""

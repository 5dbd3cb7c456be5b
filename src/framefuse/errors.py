"""Exception hierarchy. Validation errors exit the CLI with code 1, numerical with 2."""


class FrameFuseError(Exception):
    pass


class ValidationError(FrameFuseError):
    pass


class NumericalError(FrameFuseError):
    pass


# -- numerics --

class ShapeMismatch(ValidationError):
    pass


class AllMaskedRow(ValidationError):
    """An attention query row whose mask blocks every key."""


class NotScalarLoss(ValidationError):
    pass


# -- frontend --

class IndivisibleResolution(ValidationError):
    pass


class IndivisibleFrames(ValidationError):
    pass


# -- encoder --

class IndivisibleTokens(ValidationError):
    pass


# -- compressor --

class NonSquareGrid(ValidationError):
    pass


class OddGridSide(ValidationError):
    pass


class NonIntegralBudget(ValidationError):
    pass


# -- decoder --

class SequenceTooLong(ValidationError):
    pass


# -- synthclips --

class BadConfig(ValidationError):
    pass


class ZeroDuration(ValidationError):
    pass


# -- harness --

class DivergedLoss(NumericalError):
    pass


class GradientCheckFailed(NumericalError):
    pass


class SchemaMismatch(ValidationError):
    pass


class BadMagic(ValidationError):
    pass


class TruncatedFile(ValidationError):
    pass


class UnknownParameter(ValidationError):
    pass

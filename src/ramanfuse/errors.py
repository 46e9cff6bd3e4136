"""Exception hierarchy shared by all modules.

Two roots below ``RamanFuseError`` drive the CLI exit codes: ``DataError``
(bad inputs, exit 2) and ``NumericalError`` (computation cannot proceed,
exit 3).
"""


class RamanFuseError(Exception):
    pass


class DataError(RamanFuseError):
    pass


class NumericalError(RamanFuseError):
    pass


# --- dataio ---------------------------------------------------------------

class MalformedFile(DataError):
    pass


class MalformedManifest(MalformedFile):
    pass


class DuplicateSample(DataError):
    pass


class MissingFile(DataError):
    pass


class TruncatedData(DataError):
    pass


class UnsupportedVersion(DataError):
    pass


# --- spectral -------------------------------------------------------------

class ZeroVariance(NumericalError):
    pass


class SpectrumTooShort(DataError):
    pass


class DegenerateFit(NumericalError):
    pass


class EmptyMask(DataError):
    pass


# --- imaging --------------------------------------------------------------

class TooFewPixels(DataError):
    pass


class ConstantImage(DataError):
    pass


class ConstantCube(DataError):
    pass


class DimMismatch(DataError):
    pass


class InputTooSmall(DataError):
    pass


# --- sift / bovw ----------------------------------------------------------

class ImageTooSmall(DataError):
    pass


class TooFewDescriptors(DataError):
    pass


class ModalityMismatch(DataError):
    pass


# --- svm / plsda ----------------------------------------------------------

class SingleClass(DataError):
    pass


class DegenerateKernel(NumericalError):
    pass


class CalibrationFailed(NumericalError):
    pass


class RankDeficient(NumericalError):
    pass


# --- eval -----------------------------------------------------------------

class TooFewPatients(DataError):
    pass


class InsufficientClassCoverage(DataError):
    pass

"""Exception types raised across the library, and the value-range check.

Each subsystem raises a dedicated class so callers can distinguish bad
input data from bad configuration without parsing messages.
"""

from dataclasses import field, fields


class TwinMdpError(Exception):
    """Base class for all library errors."""


# --- trajectory corpus ------------------------------------------------------

class CorpusError(TwinMdpError):
    """A trajectory record failed validation.

    ``line`` is the 1-based line number in the corpus file, or None when the
    object was constructed directly.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedRecord(CorpusError):
    pass


class ScoreOutOfRange(CorpusError):
    pass


class ChosenEntityNotInCandidates(CorpusError):
    pass


class NonMonotoneTurnIndex(CorpusError):
    pass


class IoFailure(TwinMdpError):
    pass


# --- topology ---------------------------------------------------------------

class UnknownEntity(TwinMdpError):
    pass


class EmptyGraphNoEdges(TwinMdpError):
    pass


# --- abstraction / hmm ------------------------------------------------------

class EntityNotInVocabulary(TwinMdpError):
    pass


class EntityNotInGraph(TwinMdpError):
    pass


class DimensionMismatch(TwinMdpError):
    pass


class DegenerateData(TwinMdpError):
    pass


class SchemeMismatch(TwinMdpError):
    pass


# --- reward learning --------------------------------------------------------

class EmptyPairSet(TwinMdpError):
    pass


# --- offline RL / evaluation ------------------------------------------------

class EmptyData(TwinMdpError):
    pass


class MissingCandidateSets(TwinMdpError):
    pass


class NoCandidates(TwinMdpError):
    pass


# --- context interventions --------------------------------------------------

class EmptyCandidates(TwinMdpError):
    pass


# --- simulator --------------------------------------------------------------

class InfeasibleConfig(TwinMdpError):
    pass


# --- statistics -------------------------------------------------------------

class TooFewTrials(TwinMdpError):
    pass


class LengthMismatch(TwinMdpError):
    pass


class UnsupportedK(TwinMdpError):
    pass


class BadRanks(TwinMdpError):
    pass


# --- pipeline ---------------------------------------------------------------

class MissingArtifact(TwinMdpError):
    pass


class ConfigInvalid(TwinMdpError):
    def __init__(self, problems: list[str]):
        self.problems = list(problems)
        super().__init__("invalid config:\n" + "\n".join(f"  - {p}" for p in self.problems))


class StageFailed(TwinMdpError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        self.cause = cause
        super().__init__(f"stage '{stage}' failed: {cause}")


# --- value ranges -------------------------------------------------------------

def in_range(value, spec) -> bool:
    """Whether ``value`` (each value, for a list) lies in ``spec``: a tuple of
    the allowed values, or an interval such as "[0, 1)" or "(0, inf)"."""
    if isinstance(spec, tuple):
        return value in spec
    if isinstance(value, list):
        return all(in_range(v, spec) for v in value)
    lo, hi = (float(x) for x in spec[1:-1].split(","))
    return (lo <= value if spec[0] == "[" else lo < value) and (
        value <= hi if spec[-1] == "]" else value < hi)


def ranged(default, spec: str):
    """A dataclass field whose values must lie in the interval ``spec``."""
    return field(default=default, metadata={"range": spec})


def check_ranges(obj) -> None:
    """Raise MalformedRecord for the first field of dataclass ``obj`` that lies
    outside its ``ranged`` interval."""
    for f in fields(obj):
        spec = f.metadata.get("range")
        if spec and not in_range(getattr(obj, f.name), spec):
            raise MalformedRecord(f"{f.name} must be in {spec}")

"""Exception types shared across the package."""


class MklError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MklError):
    """A data file line could not be parsed; the message carries the line number."""

    def __init__(self, line_no, reason):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class EmptyDataset(MklError):
    """The input contained no data records."""


class NonBinaryLabels(MklError):
    """The label set is not one of {-1,+1}, {0,1}, {1,2}."""


class OneClassSplit(MklError):
    """A train/test split left the training side with a single class."""


class InfeasibleDual(MklError):
    """No violating pair exists because a label class is absent."""


class NumericalFailure(MklError):
    """A non-finite value appeared during training."""

    def __init__(self, iteration, detail=""):
        msg = f"non-finite value at iteration {iteration}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.iteration = iteration


class DegenerateModel(MklError):
    """Every kernel weight extracted as zero."""


class MalformedModel(MklError):
    """A model file failed to parse or carries an unsupported version."""

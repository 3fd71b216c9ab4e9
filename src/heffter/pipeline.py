"""The pipeline core: tour solutions of one array → embeddings → classes, and one report.

This is the chain behind the paper's lower bound: take one Heffter array,
list tour solutions (R, C) of its skeleton, embed each one, show the
rotation tables distinct, and classify the embeddings.  The biembedding
report is a fact about the array, the same for all of its solutions (see
:func:`embedding.biembedding_report`), so it is made once.  ``pipeline`` feeds
it the solutions it enumerates, and ``classify`` on a run directory the
solutions that ``pipeline`` saved.

The core calls the layers through their modules (``embedding.X``,
``iso.X``), never through names bound at import, so that whatever replaces
a module attribute, such as a tracer, sees every call.
"""

from typing import Iterable, NamedTuple, Sequence

from . import embedding, iso


class MathFailure(Exception):
    """A run that fails mathematically; the CLI reports it and exits 1."""


class PipelineResult(NamedTuple):
    """The embeddings of a run's tour solutions, in solution order, and their classes.

    Member i of ``classification`` is ``embeddings[i]``.
    """

    embeddings: tuple[embedding.CombinatorialEmbedding, ...]
    classification: iso.ClassificationResult

    @property
    def reports_passed(self) -> bool:
        """Whether the embeddings pass :func:`embedding.biembedding_report`.

        The report cannot vary over one array's solutions (its docstring
        says why), so only the first embedding is reported.  Computed on
        each read, so a caller that never reads it pays for no report.
        """
        return embedding.biembedding_report(self.embeddings[0]).passed


def run_pipeline(array: embedding.PartiallyFilledArray,
                 pairs: Iterable[tuple[Sequence[int], Sequence[int]]]) -> PipelineResult:
    """Embed and classify the tour solutions ``pairs`` of ``array``.

    ``pairs`` is any iterable of pairs (R, C), such as the
    ``knight.OrientationPair`` records that ``knight.enumerate_solutions``
    lists, and is read once, so a one-shot generator serves too.  The
    distinctness of the rotation tables is certified by :func:`iso.classify`,
    which refuses two equal tables: distinct solutions of one array give
    distinct tables (the coincident-diagonal lemma), and every embedding
    accepted here has a table of its own.  ``pipeline`` writes their number
    as ``distinct_rotations``.

    Raises MathFailure when ``pairs`` is empty: there is nothing to embed.
    Raises ValueError, as :func:`embedding.build_embeddings` does, when the
    array fails validation or has fold > 1 or a pair is not a tour solution
    of it, and as :func:`iso.classify` does when two pairs give one table.
    """
    embeddings = tuple(embedding.build_embeddings(array, pairs))
    if not embeddings:
        raise MathFailure("no tour solutions")
    return PipelineResult(embeddings, iso.classify(embeddings))

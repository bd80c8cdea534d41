"""Plan synthesis for agent teams moving on weighted transition systems
under interval temporal-logic deadlines."""

from .core import (INFINITY, InputError, LassoTimedWord, TimeInterval,
                   parse_rational, format_rational)
from .mitl import (Formula, MitlSyntaxError, PunctualIntervalError,
                   evaluate_at, first_violation, format_formula, normalize,
                   parse_formula, satisfies)
from .tba import (TimedBuchiAutomaton, UnsupportedFragmentError, accepts_lasso,
                  empty_tba, intersect, tba_from_dict, tba_to_dict,
                  translate_mitl, universal_tba)
from .wts import (CollectiveRun, TimedRun, WeightedTransitionSystem,
                  collective_run, collective_word_of, grid_system,
                  timed_word_of)
from .product import GlobalProduct, LocalProduct, TeamProduct
from .search import (AcceptingLasso, ExplorationLimitError, PlanBundle,
                     find_accepting_lasso, project_plan)

__version__ = "0.1.0"

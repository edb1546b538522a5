//! Error type shared by the graph builders and the edge-list I/O.

use std::fmt;

/// Errors produced while constructing or reading graphs.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A vertex id referenced by an arc is `>= num_vertices`.
    VertexOutOfRange {
        /// The offending vertex id.
        vertex: u64,
        /// Number of vertices of the graph under construction.
        num_vertices: usize,
    },
    /// An arc probability was outside `(0, 1]` (or not finite).
    InvalidProbability {
        /// Source vertex of the offending arc.
        source: u32,
        /// Target vertex of the offending arc.
        target: u32,
        /// The offending probability value.
        probability: f64,
    },
    /// The same `(source, target)` arc was inserted twice.
    DuplicateArc {
        /// Source vertex of the duplicated arc.
        source: u32,
        /// Target vertex of the duplicated arc.
        target: u32,
    },
    /// A self-loop `(v, v)` was inserted while the builder forbids them.
    SelfLoop {
        /// The vertex with the self-loop.
        vertex: u32,
    },
    /// An I/O error occurred while reading or writing an edge list.
    Io(String),
    /// A line of an edge-list file could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Human-readable description of the problem.
        message: String,
    },
    /// A binary file (CSR snapshot or update log) was malformed: bad magic,
    /// truncation, checksum mismatch, trailing bytes.
    Format {
        /// Human-readable description of the problem.
        message: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::VertexOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} is out of range for a graph with {num_vertices} vertices"
            ),
            GraphError::InvalidProbability {
                source,
                target,
                probability,
            } => write!(
                f,
                "arc ({source}, {target}) has invalid existence probability {probability}; \
                 probabilities must lie in (0, 1]"
            ),
            GraphError::DuplicateArc { source, target } => {
                write!(f, "arc ({source}, {target}) was inserted more than once")
            }
            GraphError::SelfLoop { vertex } => {
                write!(
                    f,
                    "self-loop on vertex {vertex} is not allowed by this builder"
                )
            }
            GraphError::Io(msg) => write!(f, "I/O error: {msg}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::Format { message } => {
                write!(f, "malformed binary graph file: {message}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// Shorthand for a [`GraphError::Format`] carrying `message`.
pub(crate) fn format_error(message: impl Into<String>) -> GraphError {
    GraphError::Format {
        message: message.into(),
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_the_offenders() {
        let e = GraphError::VertexOutOfRange {
            vertex: 17,
            num_vertices: 5,
        };
        assert!(e.to_string().contains("17"));
        assert!(e.to_string().contains('5'));

        let e = GraphError::InvalidProbability {
            source: 1,
            target: 2,
            probability: 1.5,
        };
        assert!(e.to_string().contains("1.5"));

        let e = GraphError::DuplicateArc {
            source: 3,
            target: 4,
        };
        assert!(e.to_string().contains("(3, 4)"));

        let e = GraphError::Parse {
            line: 12,
            message: "bad".into(),
        };
        assert!(e.to_string().contains("12"));
    }

    #[test]
    fn io_error_converts() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "missing");
        let e: GraphError = io.into();
        assert!(matches!(e, GraphError::Io(_)));
    }
}

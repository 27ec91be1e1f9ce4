// Fixture: prof taxonomy. The Bucket enum, the kBucketNames table it
// indexes and the DESIGN.md taxonomy table must agree entry by entry.
enum class Bucket : int
{
    IssueCompute = 0,
    FetchQueued,
    StackBound,
    IdleNoRay,
};
